// Checkpoint serialization for the checkpoint store (internal/ckpt).
// A Checkpoint holds a pointer into its program, so the wire form
// carries only the architectural state; deserialization re-attaches a
// program the caller rebuilt (deterministically, from the same
// benchmark seed) and validates every control position against it.
// Memory is written as a delta: against an earlier checkpoint of the
// same stream, or else against the program's initial data image, which
// the decoder rebuilds from the same program, so a page the program
// never wrote is never carried. The layout is fixed little-endian with
// sorted page keys, so identical states serialize to identical bytes —
// the property the store's content addressing and the bit-identity
// tests rely on.
package emu

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"repro/internal/binio"
	"repro/internal/prog"
)

// ckptMagic guards the checkpoint wire layout; bump it on any change.
const ckptMagic uint32 = 0x534b_4332 // "SKC2"

func appendPosition(w *binio.Writer, p position) {
	w.I64(int64(p.proc))
	w.I64(int64(p.block))
	w.I64(int64(p.inst))
}

func readPosition(r *binio.Reader) position {
	return position{proc: int(r.I64()), block: int(r.I64()), inst: int(r.I64())}
}

// validPosition reports whether pos addresses an instruction of p.
func validPosition(p *prog.Program, pos position) bool {
	if pos.proc < 0 || pos.proc >= len(p.Procs) {
		return false
	}
	pr := p.Procs[pos.proc]
	if pos.block < 0 || pos.block >= len(pr.Blocks) {
		return false
	}
	return pos.inst >= 0 && pos.inst < len(pr.Blocks[pos.block].Insts)
}

// MarshalBinary serializes the checkpoint's architectural state. The
// program is not included; UnmarshalCheckpoint re-attaches it.
func (c *Checkpoint) MarshalBinary() ([]byte, error) { return c.MarshalDelta(nil) }

// pageRecord is the wire size of one page: its key and its words.
const pageRecord = 8 + 8*pageWords

// MarshalDelta serializes the checkpoint as a delta against prev, an
// earlier checkpoint of the same program that maps no page c does not:
// the header, the total page count, then only the pages whose words
// differ from prev's, in ascending key order. A nil prev is the
// program's initial data image, which every checkpoint of the program
// maps, because pages are never unmapped: that is MarshalBinary's
// layout, and it carries only the pages the program has written.
// Checkpoints taken along one stream share the pages the program did
// not write in between, so those are skipped without comparing their
// words. UnmarshalCheckpointDelta with the same prev decodes the
// result.
func (c *Checkpoint) MarshalDelta(prev *Checkpoint) ([]byte, error) {
	var base map[uint64]*page
	if prev != nil {
		base = prev.pages
	} else {
		base = imagePages(c.prog, nil)
	}
	for k := range base {
		if c.pages[k] == nil {
			return nil, fmt.Errorf("emu: delta base maps page %#x, the checkpoint does not", k)
		}
	}
	var w binio.Writer
	w.U32(ckptMagic)
	for _, v := range c.iregs {
		w.I64(v)
	}
	for _, v := range c.fregs {
		w.F64(v)
	}
	appendPosition(&w, c.pos)
	w.U32(uint32(len(c.stack)))
	for _, pos := range c.stack {
		appendPosition(&w, pos)
	}
	w.I64(c.seq)
	w.Bool(c.halt)
	keys := slices.Sorted(maps.Keys(c.pages))
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		pg := c.pages[k]
		if old := base[k]; old == pg || (old != nil && old.words == pg.words) {
			continue
		}
		w.U64(k)
		for _, word := range pg.words {
			w.I64(word)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalCheckpoint deserializes a checkpoint and attaches it to the
// given linked program, validating every control position against it.
// The caller must rebuild the exact program the checkpoint was taken
// from (same benchmark, same seed, same instrumentation); a structurally
// incompatible program is rejected, but a same-shaped different program
// would execute garbage — the store's content key is what rules that
// out.
func UnmarshalCheckpoint(data []byte, p *prog.Program) (Checkpoint, error) {
	return UnmarshalCheckpointDelta(data, p, nil)
}

// UnmarshalCheckpointDelta decodes MarshalDelta(prev)'s output as
// UnmarshalCheckpoint does: the result holds prev's pages, or for a nil
// prev the pages of p's initial data image, overlaid with the pages
// data carries. It has its own page map and shares the unchanged pages
// with prev. The page keys must ascend strictly, a carried page must
// differ from the page it replaces (MarshalDelta never carries an equal
// one), and the overlay must hold exactly the recorded page total.
func UnmarshalCheckpointDelta(data []byte, p *prog.Program, prev *Checkpoint) (Checkpoint, error) {
	var c Checkpoint
	if !p.Linked() {
		return c, fmt.Errorf("emu: cannot attach checkpoint to unlinked program %q", p.Name)
	}
	r := binio.NewReader(data)
	if m := r.U32(); m != ckptMagic {
		return c, fmt.Errorf("emu: bad checkpoint magic %#x", m)
	}
	for i := range c.iregs {
		c.iregs[i] = r.I64()
	}
	for i := range c.fregs {
		c.fregs[i] = r.F64()
	}
	c.pos = readPosition(r)
	nstack := int(r.U32())
	if err := r.Err(); err != nil {
		return Checkpoint{}, err
	}
	if nstack > r.Remaining()/24 { // 24 bytes per stack entry
		return Checkpoint{}, fmt.Errorf("emu: implausible checkpoint stack depth %d", nstack)
	}
	c.stack = make([]position, nstack)
	for i := range c.stack {
		c.stack[i] = readPosition(r)
	}
	c.seq = r.I64()
	c.halt = r.Bool()
	npages := int(r.U32())
	if err := r.Err(); err != nil {
		return Checkpoint{}, err
	}
	if r.Remaining()%pageRecord != 0 {
		return Checkpoint{}, binio.ErrCorrupt
	}
	ndelta := r.Remaining() / pageRecord
	if prev != nil {
		c.pages = maps.Clone(prev.pages)
	} else {
		c.pages = imagePages(p, nil)
	}
	var last uint64
	for i := 0; i < ndelta; i++ {
		key := r.U64()
		if i > 0 && key <= last {
			return Checkpoint{}, fmt.Errorf("emu: checkpoint page %#x out of order after %#x", key, last)
		}
		last = key
		pg := new(page)
		b := r.Raw(8 * pageWords)
		for j := range pg.words {
			pg.words[j] = int64(binary.LittleEndian.Uint64(b[8*j:]))
		}
		if old := c.pages[key]; old != nil && old.words == pg.words {
			return Checkpoint{}, fmt.Errorf("emu: checkpoint carries page %#x unchanged from its base", key)
		}
		c.pages[key] = pg
	}
	if len(c.pages) != npages {
		return Checkpoint{}, fmt.Errorf("emu: checkpoint records %d pages, holds %d", npages, len(c.pages))
	}
	if !validPosition(p, c.pos) {
		return Checkpoint{}, fmt.Errorf("emu: checkpoint position %+v outside program %q", c.pos, p.Name)
	}
	for _, pos := range c.stack {
		if !validPosition(p, pos) {
			return Checkpoint{}, fmt.Errorf("emu: checkpoint stack entry %+v outside program %q", pos, p.Name)
		}
	}
	c.prog = p
	return c, nil
}

// Equal reports whether two checkpoints hold identical architectural
// state for the same program (test helper for the serialization suite).
func (c *Checkpoint) Equal(o *Checkpoint) bool {
	if c.prog != o.prog || c.iregs != o.iregs || c.fregs != o.fregs ||
		c.pos != o.pos || c.seq != o.seq || c.halt != o.halt ||
		len(c.stack) != len(o.stack) || len(c.pages) != len(o.pages) {
		return false
	}
	for i := range c.stack {
		if c.stack[i] != o.stack[i] {
			return false
		}
	}
	for k, pg := range c.pages {
		opg := o.pages[k]
		if opg == nil || pg.words != opg.words {
			return false
		}
	}
	return true
}
