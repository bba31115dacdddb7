// Package prog defines the machine-level intermediate representation the
// compiler passes and the simulators share: programs made of procedures,
// procedures made of basic blocks, blocks made of instructions. It plays
// the role MachineSUIF plays in the paper: the substrate on which the
// issue-queue analysis runs and into which hint NOOPs are inserted.
//
// Structural invariants (established by the builder and checked by Link):
//   - control-transfer instructions (branches, jumps, calls, returns,
//     halt) appear only as the last instruction of a block;
//   - calls terminate their block, so "the first block after a procedure
//     call" (paper section 4.1) is always a block boundary;
//   - every block's successor list is derivable from its last instruction.
package prog

import (
	"fmt"
	"sync/atomic"

	"repro/internal/isa"
)

// Inst is one machine instruction. Target is a block index within the
// procedure for branches and jumps and a procedure index for calls.
// Hint carries an issue-queue size hint: for an isa.HintNop it is the
// NOOP's payload; for any other instruction a non-zero Hint is the
// "Extension" tag encoded in redundant ISA bits. PC is assigned by Link.
type Inst struct {
	Op         isa.Op
	Dst        isa.Reg
	Src1, Src2 isa.Reg
	Imm        int64
	Target     int
	Hint       int
	PC         int
}

// NewInst returns an instruction with no register operands.
func NewInst(op isa.Op) Inst {
	return Inst{Op: op, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Target: -1}
}

// Sources returns the architectural source registers the instruction
// actually reads (reads of the hardwired zero register are dropped, since
// they never create a dependence).
func (in *Inst) Sources() []isa.Reg {
	var out []isa.Reg
	if in.Src1.Valid() && in.Src1 != isa.RZero {
		out = append(out, in.Src1)
	}
	if in.Src2.Valid() && in.Src2 != isa.RZero {
		out = append(out, in.Src2)
	}
	return out
}

// HasDst reports whether the instruction writes an architectural register.
// Writes to the zero register are discarded and reported as no destination.
func (in *Inst) HasDst() bool { return in.Dst.Valid() && in.Dst != isa.RZero }

// Terminates reports whether the instruction must end its basic block.
func (in *Inst) Terminates() bool {
	return in.Op.IsBranch() || in.Op.IsCtrl() || in.Op == isa.Halt
}

// String formats the instruction in the textual assembly syntax.
func (in *Inst) String() string {
	s := in.Op.String()
	switch in.Op.Class() {
	case isa.ClassNop:
		if in.Op == isa.HintNop {
			return fmt.Sprintf("hint %d", in.Imm)
		}
		return s
	case isa.ClassLoad:
		s = fmt.Sprintf("%s %s, %d(%s)", s, in.Dst, in.Imm, in.Src1)
	case isa.ClassStore:
		s = fmt.Sprintf("%s %s, %d(%s)", s, in.Src2, in.Imm, in.Src1)
	case isa.ClassBranch:
		s = fmt.Sprintf("%s %s, %s, @%d", s, in.Src1, in.Src2, in.Target)
	case isa.ClassCtrl:
		switch in.Op {
		case isa.Jmp:
			s = fmt.Sprintf("jmp @%d", in.Target)
		case isa.Call, isa.CallLib:
			s = fmt.Sprintf("%s proc%d", s, in.Target)
		case isa.Ret:
			s = "ret"
		}
	case isa.ClassHalt:
		s = "halt"
	default:
		switch {
		case in.Op == isa.Li:
			s = fmt.Sprintf("li %s, %d", in.Dst, in.Imm)
		case in.Op.HasImm():
			s = fmt.Sprintf("%s %s, %s, %d", s, in.Dst, in.Src1, in.Imm)
		case in.Op == isa.Mov || in.Op == isa.FMov || in.Op == isa.ItoF || in.Op == isa.FtoI:
			s = fmt.Sprintf("%s %s, %s", s, in.Dst, in.Src1)
		default:
			s = fmt.Sprintf("%s %s, %s, %s", s, in.Dst, in.Src1, in.Src2)
		}
	}
	if in.Hint != 0 && in.Op != isa.HintNop {
		s += fmt.Sprintf(" !iq=%d", in.Hint)
	}
	return s
}

// Block is a basic block: straight-line code with a single entry at the
// top and (after Link) explicit successor and predecessor edges.
type Block struct {
	ID    int
	Label string
	Insts []Inst
	Succs []int
	Preds []int
}

// Last returns the final instruction of the block, or nil if empty.
func (b *Block) Last() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// Proc is a procedure: an ordered list of basic blocks; block 0 is the
// entry. IsLib marks an opaque library routine (paper section 4.4): its
// body is not analysed and callers allow the IQ its maximum size.
type Proc struct {
	Name   string
	ID     int
	Blocks []*Block
	IsLib  bool
}

// NumInsts returns the total instruction count of the procedure.
func (p *Proc) NumInsts() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Program is a whole linked program plus its initial data image.
type Program struct {
	Name  string
	Procs []*Proc
	Entry int // index of the entry procedure

	// Data is the initial data segment, in 8-byte words, loaded at
	// DataBase. Word i lives at byte address DataBase + 8*i.
	Data     []int64
	DataBase uint64

	linked bool

	// decoded is an opaque per-link cache slot for execution engines
	// (the emulator stashes its decoded dispatch table here so every
	// emulator over this program shares one decode pass). Link clears
	// it: any structural change invalidates a derived table.
	decoded atomic.Pointer[any]
}

// DefaultDataBase is where the data segment is loaded when the program
// does not choose its own base.
const DefaultDataBase uint64 = 0x1_0000

// New returns an empty program.
func New(name string) *Program {
	return &Program{Name: name, Entry: -1, DataBase: DefaultDataBase}
}

// AddProc appends a procedure and returns its index.
func (p *Program) AddProc(pr *Proc) int {
	pr.ID = len(p.Procs)
	p.Procs = append(p.Procs, pr)
	return pr.ID
}

// ProcByName returns the procedure with the given name, or nil.
func (p *Program) ProcByName(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// NumInsts returns the total static instruction count.
func (p *Program) NumInsts() int {
	n := 0
	for _, pr := range p.Procs {
		n += pr.NumInsts()
	}
	return n
}

// Linked reports whether Link has succeeded on this program.
func (p *Program) Linked() bool { return p.linked }

// Decoded returns the value stashed by SetDecoded since the last Link,
// or nil. The program itself attaches no meaning to it.
func (p *Program) Decoded() any {
	if v := p.decoded.Load(); v != nil {
		return *v
	}
	return nil
}

// SetDecoded stashes a value derived from the linked program (e.g. a
// decoded dispatch table). Concurrent stores are safe; the slot holds
// whichever lands last, and Link discards it.
func (p *Program) SetDecoded(v any) { p.decoded.Store(&v) }

// Link validates the program, assigns PCs (4 bytes per instruction,
// procedures laid out in order), and computes successor/predecessor edges.
// It must be called after any structural change and before emulation.
func (p *Program) Link() error {
	p.decoded.Store(nil)
	if p.Entry < 0 || p.Entry >= len(p.Procs) {
		return fmt.Errorf("prog %q: entry procedure %d out of range", p.Name, p.Entry)
	}
	pc := 0
	for _, pr := range p.Procs {
		if len(pr.Blocks) == 0 {
			return fmt.Errorf("proc %q: no blocks", pr.Name)
		}
		for bi, b := range pr.Blocks {
			b.ID = bi
			b.Succs = b.Succs[:0]
			b.Preds = b.Preds[:0]
			if len(b.Insts) == 0 {
				return fmt.Errorf("proc %q block %d: empty basic block", pr.Name, bi)
			}
			for ii := range b.Insts {
				in := &b.Insts[ii]
				in.PC = pc
				pc += isa.InstBytes
				if in.Terminates() && ii != len(b.Insts)-1 {
					return fmt.Errorf("proc %q block %d inst %d (%s): control transfer not at block end",
						pr.Name, bi, ii, in)
				}
				if err := p.checkTargets(pr, in); err != nil {
					return fmt.Errorf("proc %q block %d inst %d: %w", pr.Name, bi, ii, err)
				}
			}
		}
	}
	// Successor edges from terminators; fallthrough to the next block.
	for _, pr := range p.Procs {
		for bi, b := range pr.Blocks {
			last := b.Last()
			switch {
			case last.Op.IsBranch():
				b.Succs = append(b.Succs, last.Target)
				if bi+1 >= len(pr.Blocks) {
					return fmt.Errorf("proc %q block %d: branch falls off procedure end", pr.Name, bi)
				}
				if last.Target != bi+1 {
					b.Succs = append(b.Succs, bi+1)
				}
			case last.Op == isa.Jmp:
				b.Succs = append(b.Succs, last.Target)
			case last.Op == isa.Ret, last.Op == isa.Halt:
				// no intra-procedure successors
			default:
				// Calls and plain fallthrough continue at the next block.
				if bi+1 >= len(pr.Blocks) {
					return fmt.Errorf("proc %q block %d: falls off procedure end", pr.Name, bi)
				}
				b.Succs = append(b.Succs, bi+1)
			}
		}
		for _, b := range pr.Blocks {
			for _, s := range b.Succs {
				pr.Blocks[s].Preds = append(pr.Blocks[s].Preds, b.ID)
			}
		}
	}
	p.linked = true
	return nil
}

func (p *Program) checkTargets(pr *Proc, in *Inst) error {
	switch {
	case in.Op.IsBranch() || in.Op == isa.Jmp:
		if in.Target < 0 || in.Target >= len(pr.Blocks) {
			return fmt.Errorf("%s: block target %d out of range", in, in.Target)
		}
	case in.Op.IsCall():
		if in.Target < 0 || in.Target >= len(p.Procs) {
			return fmt.Errorf("%s: proc target %d out of range", in, in.Target)
		}
	}
	return nil
}
