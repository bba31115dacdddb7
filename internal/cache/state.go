// Warm-state copying and serialization for the checkpoint store
// (internal/ckpt): a sampled run's functional warming leaves the
// hierarchy in a state that is expensive to recompute and cheap to
// snapshot. CopyInto serves the in-process fork-per-window engine;
// AppendState/UnmarshalState serve the on-disk artifact. Both carry the
// complete microarchitectural state — every line's valid/tag/lru plus
// the LRU tick — so a restored hierarchy behaves bit-identically to the
// original under any subsequent access sequence. All of them write into
// the caller's storage, so a sampled run that forks, encodes or decodes
// the state every window reuses the same storage instead of allocating
// it.
package cache

import (
	"encoding/binary"
	"fmt"

	"repro/internal/binio"
)

// WithDefaults resolves zero-valued levels to table 1 (the same
// resolution NewHierarchy applies), so two configs that build identical
// hierarchies serialize identically — the property checkpoint keying
// needs.
func (cfg HierarchyConfig) WithDefaults() HierarchyConfig {
	d := DefaultHierarchyConfig()
	if cfg.IL1.SizeBytes == 0 {
		cfg.IL1 = d.IL1
	}
	if cfg.DL1.SizeBytes == 0 {
		cfg.DL1 = d.DL1
	}
	if cfg.L2.SizeBytes == 0 {
		cfg.L2 = d.L2
	}
	if cfg.MemCycles == 0 {
		cfg.MemCycles = d.MemCycles
	}
	return cfg
}

// copyInto makes dst an independent copy of the cache, reusing dst's
// line storage when it is large enough.
func (c *Cache) copyInto(dst *Cache) {
	lines := append(dst.lines[:0], c.lines...)
	*dst = *c
	dst.lines = lines
}

// CopyInto makes dst an independent copy of the hierarchy — configuration,
// lines, LRU clocks and Stats — reusing dst's storage, whatever state it
// held before; later accesses to either do not affect the other. A zero
// Hierarchy is a valid dst.
func (h *Hierarchy) CopyInto(dst *Hierarchy) {
	if dst.IL1 == nil {
		dst.IL1, dst.DL1, dst.L2 = new(Cache), new(Cache), new(Cache)
	}
	h.IL1.copyInto(dst.IL1)
	h.DL1.copyInto(dst.DL1)
	h.L2.copyInto(dst.L2)
	dst.MemCycles = h.MemCycles
}

// appendState writes the cache's mutable state plus a geometry
// fingerprint, so a restore into a differently-shaped cache fails
// loudly instead of silently misplacing lines.
func (c *Cache) appendState(w *binio.Writer) {
	w.U32(uint32(c.sets))
	w.U32(uint32(c.cfg.Assoc))
	w.U32(uint32(c.cfg.LineBytes))
	w.I64(c.tick)
	w.U32(uint32(len(c.lines)))
	for i := range c.lines {
		ln := &c.lines[i]
		w.Bool(ln.valid)
		w.U64(ln.tag)
		w.I64(ln.lru)
	}
}

// lineStateBytes is the encoded size of one line: valid, tag and lru.
const lineStateBytes = 1 + 8 + 8

// readState restores the cache's mutable state, validating the geometry
// fingerprint against this cache's configuration. The lines are
// fixed-size records, decoded in place from one bounds-checked slice.
func (c *Cache) readState(r *binio.Reader) error {
	sets, assoc, lineBytes := int(r.U32()), int(r.U32()), int(r.U32())
	tick := r.I64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if sets != c.sets || assoc != c.cfg.Assoc || lineBytes != c.cfg.LineBytes || n != len(c.lines) {
		return fmt.Errorf("cache %s: serialized geometry %dx%d/%dB (%d lines) does not match %dx%d/%dB (%d lines)",
			c.cfg.Name, sets, assoc, lineBytes, n, c.sets, c.cfg.Assoc, c.cfg.LineBytes, len(c.lines))
	}
	raw := r.Raw(n * lineStateBytes)
	if err := r.Err(); err != nil {
		return err
	}
	for i := range c.lines {
		rec := raw[i*lineStateBytes:][:lineStateBytes]
		if rec[0] > 1 {
			return binio.ErrCorrupt // a valid byte Writer.Bool cannot write
		}
		c.lines[i] = line{
			valid: rec[0] == 1,
			tag:   binary.LittleEndian.Uint64(rec[1:]),
			lru:   int64(binary.LittleEndian.Uint64(rec[9:])),
		}
	}
	c.tick = tick
	return nil
}

// AppendState appends the hierarchy's serialized warm state (all three
// levels' lines and LRU clocks; Stats are not state and are excluded) to
// buf and returns the extended buffer.
func (h *Hierarchy) AppendState(buf []byte) []byte {
	w := binio.NewWriter(buf)
	h.IL1.appendState(w)
	h.DL1.appendState(w)
	h.L2.appendState(w)
	return w.Bytes()
}

// UnmarshalState restores warm state serialized by AppendState into a
// hierarchy built from the same configuration, overwriting whatever
// state it held in its own storage. Stats are reset.
func (h *Hierarchy) UnmarshalState(data []byte) error {
	r := binio.NewReader(data)
	if err := h.IL1.readState(r); err != nil {
		return fmt.Errorf("cache: restore IL1: %w", err)
	}
	if err := h.DL1.readState(r); err != nil {
		return fmt.Errorf("cache: restore DL1: %w", err)
	}
	if err := h.L2.readState(r); err != nil {
		return fmt.Errorf("cache: restore L2: %w", err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("cache: %d trailing bytes after hierarchy state", r.Remaining())
	}
	h.IL1.Stats, h.DL1.Stats, h.L2.Stats = Stats{}, Stats{}, Stats{}
	return nil
}
