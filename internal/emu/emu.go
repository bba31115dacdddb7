// Package emu is the functional emulator: the SimpleScalar "functional
// core" equivalent. It executes a linked program with concrete register
// and memory state and yields the committed dynamic instruction stream the
// timing simulator consumes. Branch outcomes and memory addresses are
// therefore real, not modelled.
package emu

import (
	"fmt"
	"maps"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// pageBits gives 4KiB pages of 512 words.
const (
	pageBits  = 12
	pageWords = 1 << (pageBits - 3)
)

// page is one mapped page. Pages are shared copy-on-write between a
// memory and the checkpoints taken from it or restored into it: only
// the memory whose epoch is owner writes a page in place, and any other
// memory copies the page first. A page's owner never changes, and a
// memory takes a new epoch whenever it shares its pages, so a page a
// checkpoint can reach is never written again. Pages decoded from a
// checkpoint have no owner.
type page struct {
	owner *epoch
	words [pageWords]int64
}

// epoch is one period of a memory's ownership of its pages, identified
// by its address. It is not zero-sized, so distinct epochs have
// distinct addresses.
type epoch struct{ _ byte }

// Memory is a sparse, paged, word-granular memory. Addresses are byte
// addresses rounded down to 8-byte alignment.
type Memory struct {
	pages map[uint64]*page
	epoch *epoch
}

// Load reads the 8-byte word containing addr; unmapped memory reads 0.
func (m *Memory) Load(addr uint64) int64 {
	pg := m.pages[addr>>pageBits]
	if pg == nil {
		return 0
	}
	return pg.words[(addr>>3)&(pageWords-1)]
}

// Store writes the 8-byte word containing addr, first copying the page
// if this memory does not own it.
func (m *Memory) Store(addr uint64, v int64) {
	key := addr >> pageBits
	pg := m.pages[key]
	if pg == nil || pg.owner != m.epoch {
		cp := &page{owner: m.epoch}
		if pg != nil {
			cp.words = pg.words
		}
		pg = cp
		m.pages[key] = pg
	}
	pg.words[(addr>>3)&(pageWords-1)] = v
}

// share returns a new map holding the memory's pages and moves the
// memory to a fresh epoch, so it copies each of those pages before its
// next write to it.
func (m *Memory) share() map[uint64]*page {
	m.epoch = new(epoch)
	return maps.Clone(m.pages)
}

type position struct {
	proc, block, inst int
}

// Emulator executes one program.
type Emulator struct {
	prog  *prog.Program
	iregs [isa.IntRegs]int64
	fregs [isa.FPRegs]float64
	mem   *Memory
	seq   int64
	halt  bool

	// Control state is a flat index into the program's decoded dispatch
	// table (see decode.go) plus a stack of flat return indexes.
	// Checkpoint and Restore convert it to and from structural
	// positions, the checkpoint wire representation.
	dec    *decProgram
	flat   int32
	fstack []int32

	// Restart controls behaviour at program completion: when true the
	// architectural state is preserved but control returns to the entry
	// procedure, so short programs can fill any instruction budget (the
	// paper runs fixed 100M-instruction windows of much longer programs).
	Restart bool
}

// New returns an emulator over a linked program with the data segment
// loaded.
func New(p *prog.Program) (*Emulator, error) {
	e, err := newBare(p)
	if err != nil {
		return nil, err
	}
	ep := new(epoch)
	e.mem = &Memory{pages: imagePages(p, ep), epoch: ep}
	e.flat = e.dec.entry
	return e, nil
}

// imagePages returns the pages of p's initial data image, owned by
// owner: p.Data stored word by word from p.DataBase, each page filled
// with one copy instead of a Store per word. Every page a data word
// falls in is mapped, zero pages included, exactly as a Store per word
// would map it.
func imagePages(p *prog.Program, owner *epoch) map[uint64]*page {
	pages := make(map[uint64]*page)
	for i := 0; i < len(p.Data); {
		addr := p.DataBase + uint64(8*i)
		slot := int((addr >> 3) & (pageWords - 1))
		n := min(pageWords-slot, len(p.Data)-i)
		pg := &page{owner: owner}
		copy(pg.words[slot:], p.Data[i:i+n])
		pages[addr>>pageBits] = pg
		i += n
	}
	return pages
}

// newBare returns an emulator over a linked program with no memory and
// no control position; the caller sets both.
func newBare(p *prog.Program) (*Emulator, error) {
	if !p.Linked() {
		return nil, fmt.Errorf("program %q is not linked", p.Name)
	}
	return &Emulator{prog: p, dec: decodeOf(p)}, nil
}

// MustNew is New that panics on error.
func MustNew(p *prog.Program) *Emulator {
	e, err := New(p)
	if err != nil {
		panic(err)
	}
	return e
}

// Mem exposes the memory (for tests and initialisation).
func (e *Emulator) Mem() *Memory { return e.mem }

// IntReg returns the value of integer register i; tests outside this
// package compare architectural state through it.
func (e *Emulator) IntReg(i int) int64 { return e.iregs[i] }

// Halted reports whether the program has finished.
func (e *Emulator) Halted() bool { return e.halt }

// Checkpoint is a full architectural snapshot of an emulator: registers,
// memory, control position, call stack and the committed-instruction
// count. Restoring it resumes execution mid-stream with the exact same
// remaining dynamic instruction sequence (Seq continuity included).
// Microarchitectural state (caches, predictor) is deliberately not part
// of a checkpoint: a restored stream reproduces a sample window's
// instructions exactly, but re-measuring its timing requires re-warming
// that state first (e.g. by restoring an earlier checkpoint and
// functionally warming forward).
type Checkpoint struct {
	prog  *prog.Program
	iregs [isa.IntRegs]int64
	fregs [isa.FPRegs]float64
	pages map[uint64]*page
	pos   position
	stack []position
	seq   int64
	halt  bool
}

// Seq returns the number of instructions executed when the checkpoint was
// taken; the next instruction the restored emulator yields carries it.
func (c *Checkpoint) Seq() int64 { return c.seq }

// Checkpoint snapshots the emulator's architectural state. The snapshot
// is independent of the emulator: later execution does not mutate it.
// The snapshot shares the memory's pages; the emulator copies a page the
// first time it writes to it afterwards.
func (e *Emulator) Checkpoint() Checkpoint {
	var stack []position
	for _, f := range e.fstack {
		stack = append(stack, e.dec.posOf[f])
	}
	return Checkpoint{
		prog:  e.prog,
		iregs: e.iregs,
		fregs: e.fregs,
		pages: e.mem.share(),
		pos:   e.dec.posOf[e.flat],
		stack: stack,
		seq:   e.seq,
		halt:  e.halt,
	}
}

// Restore rewinds the emulator to a checkpoint taken from the same
// program. The checkpoint stays valid and can be restored again: the
// emulator shares the checkpoint's pages and copies each one the first
// time it writes to it.
func (e *Emulator) Restore(c Checkpoint) error {
	if c.prog != e.prog {
		return fmt.Errorf("emu: checkpoint is for program %q, emulator runs %q",
			c.prog.Name, e.prog.Name)
	}
	e.iregs = c.iregs
	e.fregs = c.fregs
	e.mem = &Memory{pages: maps.Clone(c.pages), epoch: new(epoch)}
	e.flat = e.dec.flatOf(e.prog, c.pos)
	e.fstack = e.fstack[:0]
	for _, pos := range c.stack {
		e.fstack = append(e.fstack, e.dec.flatOf(e.prog, pos))
	}
	e.seq = c.seq
	e.halt = c.halt
	return nil
}

// NewFromCheckpoint builds a fresh emulator resuming at a checkpoint of
// the given linked program. The data segment is not loaded: the
// checkpoint's memory replaces it.
func NewFromCheckpoint(p *prog.Program, c Checkpoint) (*Emulator, error) {
	e, err := newBare(p)
	if err != nil {
		return nil, err
	}
	if err := e.Restore(c); err != nil {
		return nil, err
	}
	return e, nil
}

// Seq returns the number of instructions executed so far.
func (e *Emulator) Seq() int64 { return e.seq }

func (e *Emulator) readInt(r isa.Reg) int64 {
	if !r.IsInt() {
		return 0
	}
	return e.iregs[r]
}

func (e *Emulator) writeInt(r isa.Reg, v int64) {
	if r.IsInt() && r != isa.RZero {
		e.iregs[r] = v
	}
}

func (e *Emulator) readFP(r isa.Reg) float64 {
	if !r.IsFP() {
		return 0
	}
	return e.fregs[int(r)-isa.IntRegs]
}

func (e *Emulator) writeFP(r isa.Reg, v float64) {
	if r.IsFP() {
		e.fregs[int(r)-isa.IntRegs] = v
	}
}

// NextInto implements trace.Stream: it executes one instruction and
// fills d with its dynamic record. Every field of d is written: the
// decoded template overwrites the whole record before the instruction's
// dynamic fields are filled in, so nothing is left over from the record
// d held before.
func (e *Emulator) NextInto(d *trace.DynInst) bool {
	if e.halt {
		return false
	}
	en := &e.dec.entries[e.flat]
	*d = en.d
	d.Seq = e.seq
	e.seq++
	next := e.flat + 1
	switch d.Op {
	case isa.Nop, isa.HintNop:
		// nothing
	case isa.Li:
		e.writeInt(d.Dst, en.imm)
	case isa.Mov:
		e.writeInt(d.Dst, e.readInt(d.Src1))
	case isa.Add:
		e.writeInt(d.Dst, e.readInt(d.Src1)+e.readInt(d.Src2))
	case isa.Sub:
		e.writeInt(d.Dst, e.readInt(d.Src1)-e.readInt(d.Src2))
	case isa.And:
		e.writeInt(d.Dst, e.readInt(d.Src1)&e.readInt(d.Src2))
	case isa.Or:
		e.writeInt(d.Dst, e.readInt(d.Src1)|e.readInt(d.Src2))
	case isa.Xor:
		e.writeInt(d.Dst, e.readInt(d.Src1)^e.readInt(d.Src2))
	case isa.Shl:
		e.writeInt(d.Dst, e.readInt(d.Src1)<<(uint64(e.readInt(d.Src2))&63))
	case isa.Shr:
		e.writeInt(d.Dst, int64(uint64(e.readInt(d.Src1))>>(uint64(e.readInt(d.Src2))&63)))
	case isa.Slt:
		e.writeInt(d.Dst, boolToInt(e.readInt(d.Src1) < e.readInt(d.Src2)))
	case isa.Addi:
		e.writeInt(d.Dst, e.readInt(d.Src1)+en.imm)
	case isa.Andi:
		e.writeInt(d.Dst, e.readInt(d.Src1)&en.imm)
	case isa.Xori:
		e.writeInt(d.Dst, e.readInt(d.Src1)^en.imm)
	case isa.Shli:
		e.writeInt(d.Dst, e.readInt(d.Src1)<<(uint64(en.imm)&63))
	case isa.Shri:
		e.writeInt(d.Dst, int64(uint64(e.readInt(d.Src1))>>(uint64(en.imm)&63)))
	case isa.Slti:
		e.writeInt(d.Dst, boolToInt(e.readInt(d.Src1) < en.imm))
	case isa.Mul:
		e.writeInt(d.Dst, e.readInt(d.Src1)*e.readInt(d.Src2))
	case isa.Muli:
		e.writeInt(d.Dst, e.readInt(d.Src1)*en.imm)
	case isa.Div:
		e.writeInt(d.Dst, safeDiv(e.readInt(d.Src1), e.readInt(d.Src2)))
	case isa.Rem:
		e.writeInt(d.Dst, safeRem(e.readInt(d.Src1), e.readInt(d.Src2)))
	case isa.FAdd:
		e.writeFP(d.Dst, e.readFP(d.Src1)+e.readFP(d.Src2))
	case isa.FSub:
		e.writeFP(d.Dst, e.readFP(d.Src1)-e.readFP(d.Src2))
	case isa.FMul:
		e.writeFP(d.Dst, e.readFP(d.Src1)*e.readFP(d.Src2))
	case isa.FDiv:
		v := e.readFP(d.Src2)
		if v == 0 {
			v = 1
		}
		e.writeFP(d.Dst, e.readFP(d.Src1)/v)
	case isa.FMov:
		e.writeFP(d.Dst, e.readFP(d.Src1))
	case isa.ItoF:
		e.writeFP(d.Dst, float64(e.readInt(d.Src1)))
	case isa.FtoI:
		e.writeInt(d.Dst, int64(e.readFP(d.Src1)))
	case isa.Ld:
		d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
		e.writeInt(d.Dst, e.mem.Load(d.Addr))
	case isa.LdF:
		d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
		e.writeFP(d.Dst, float64(e.mem.Load(d.Addr)))
	case isa.St:
		d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
		e.mem.Store(d.Addr, e.readInt(d.Src2))
	case isa.StF:
		d.Addr = uint64(e.readInt(d.Src1)+en.imm) &^ 7
		e.mem.Store(d.Addr, int64(e.readFP(d.Src2)))
	case isa.Beq:
		d.Taken = e.readInt(d.Src1) == e.readInt(d.Src2)
		if d.Taken {
			next = en.tgt
		}
	case isa.Bne:
		d.Taken = e.readInt(d.Src1) != e.readInt(d.Src2)
		if d.Taken {
			next = en.tgt
		}
	case isa.Blt:
		d.Taken = e.readInt(d.Src1) < e.readInt(d.Src2)
		if d.Taken {
			next = en.tgt
		}
	case isa.Bge:
		d.Taken = e.readInt(d.Src1) >= e.readInt(d.Src2)
		if d.Taken {
			next = en.tgt
		}
	case isa.Jmp:
		d.Taken = true
		next = en.tgt
	case isa.Call, isa.CallLib:
		d.Taken = true
		e.fstack = append(e.fstack, next)
		next = en.tgt
	case isa.Ret:
		d.Taken = true
		if len(e.fstack) == 0 {
			return e.finish(d)
		}
		next = e.fstack[len(e.fstack)-1]
		e.fstack = e.fstack[:len(e.fstack)-1]
	case isa.Halt:
		return e.finish(d)
	default:
		panic("emu: unhandled opcode in decoded dispatch")
	}
	e.flat = next
	d.NextPC = int(next) * isa.InstBytes
	return true
}

// finish handles program completion: either halt or restart at the entry.
func (e *Emulator) finish(d *trace.DynInst) bool {
	if e.Restart {
		e.flat = e.dec.entry
		e.fstack = e.fstack[:0]
		d.Taken = true
		d.NextPC = int(e.dec.entry) * isa.InstBytes
		return true
	}
	e.halt = true
	d.NextPC = d.PC + isa.InstBytes
	return true
}

// Next is NextInto returning the record by value. The simulator and the
// sampled engine call NextInto; Next serves callers that step the
// emulator one record at a time, such as sdiqbench's emulator replay.
func (e *Emulator) Next() (trace.DynInst, bool) {
	var d trace.DynInst
	ok := e.NextInto(&d)
	return d, ok
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func safeDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == -1<<63 && b == -1 {
		return a
	}
	return a / b
}

func safeRem(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if a == -1<<63 && b == -1 {
		return 0
	}
	return a % b
}
