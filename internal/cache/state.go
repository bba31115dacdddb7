// Warm-state copying and serialization for the checkpoint store
// (internal/ckpt): a sampled run's functional warming leaves the
// hierarchy in a state that is expensive to recompute and cheap to
// snapshot. CopyInto serves the in-process fork-per-window engine and
// copies the clocks too; AppendState/UnmarshalState serve the on-disk
// artifact, whose state is every line's tag and its LRU rank within its
// set. That is the whole state a later access can observe: Touch fills
// the last invalid way or evicts the valid way with the least clock, a
// hit or a fill gives its line the next tick, and no line ever becomes
// invalid again, so only each set's order of clocks decides anything. A
// restored hierarchy therefore behaves bit-identically to the original
// under any subsequent access sequence. All of them write into the
// caller's storage, so a sampled run that forks, encodes or decodes the
// state every window reuses the same storage instead of allocating it.
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

// appendState writes a geometry fingerprint, so a restore into a
// differently-shaped cache fails loudly instead of silently misplacing
// lines, then every line's tag and then every line's rank: 0 for an
// invalid line, else its place in its set's LRU order, 1 being the
// least recently used. The cache's clock is not written.
func (c *Cache) appendState(w *binio.Writer) {
	w.U32(uint32(c.sets))
	w.U32(uint32(c.cfg.Assoc))
	w.U32(uint32(c.cfg.LineBytes))
	w.U32(uint32(len(c.lines)))
	for i := range c.lines {
		w.U64(c.lines[i].tag)
	}
	for base := 0; base < len(c.lines); base += c.cfg.Assoc {
		set := c.lines[base : base+c.cfg.Assoc]
		for i := range set {
			w.U8(lruRank(set, i))
		}
	}
}

// lruRank returns line i's rank in its set: 0 if it is invalid, else one
// more than the number of valid lines with a lesser clock. Clocks within
// a set are distinct, because every hit and fill takes the next tick.
func lruRank(set []line, i int) uint8 {
	if !set[i].valid {
		return 0
	}
	rank := 1
	for j := range set {
		if set[j].valid && set[j].lru < set[i].lru {
			rank++
		}
	}
	return uint8(rank)
}

// lineStateBytes is the encoded size of one line: its tag and its rank.
const lineStateBytes = 8 + 1

// readState restores the cache's mutable state, validating the geometry
// fingerprint against this cache's configuration. The tags and ranks
// are decoded in place from one bounds-checked slice. Each valid line's
// clock is restored as its rank and the cache's clock as the
// associativity, so every later tick exceeds every restored clock and
// the order is all that carries over.
func (c *Cache) readState(r *binio.Reader) error {
	sets, assoc, lineBytes := int(r.U32()), int(r.U32()), int(r.U32())
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
	tags, ranks := raw[:8*n], raw[8*n:]
	if err := binio.CheckRanks(ranks, assoc); err != nil {
		return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
	}
	for i := range c.lines {
		tag := binary.LittleEndian.Uint64(tags[8*i:])
		if ranks[i] == 0 {
			if tag != 0 {
				return binio.ErrCorrupt // no line is ever invalidated, so an invalid one was never filled
			}
			c.lines[i] = line{}
			continue
		}
		c.lines[i] = line{valid: true, tag: tag, lru: int64(ranks[i])}
	}
	c.tick = int64(assoc)
	return nil
}

// AppendState appends the hierarchy's serialized warm state (all three
// levels' tags and LRU ranks; Stats are not state and are excluded) to
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
