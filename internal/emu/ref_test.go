package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// refEmu is the reference interpreter: it executes from structural
// (proc, block, inst) positions and decodes every instruction as it
// runs. The decoded dispatch in Emulator.NextInto is differentially tested
// against it. It shares the embedded Emulator's registers, memory, Seq,
// Halted and Restart, and keeps its own control position and call
// stack; the embedded Emulator's flat control state goes unused.
type refEmu struct {
	*Emulator
	pos   position
	stack []position
}

// newRef returns a reference interpreter at the program's entry.
func newRef(p *prog.Program) *refEmu {
	return &refEmu{Emulator: MustNew(p), pos: position{p.Entry, 0, 0}}
}

// Checkpoint snapshots the reference interpreter, carrying its own
// structural control state.
func (r *refEmu) Checkpoint() Checkpoint {
	c := r.Emulator.Checkpoint()
	c.pos, c.stack = r.pos, append([]position(nil), r.stack...)
	return c
}

// Restore rewinds the reference interpreter to a checkpoint.
func (r *refEmu) Restore(c Checkpoint) error {
	if err := r.Emulator.Restore(c); err != nil {
		return err
	}
	r.pos, r.stack = c.pos, append(r.stack[:0:0], c.stack...)
	return nil
}

func (r *refEmu) cur() *prog.Inst {
	p := r.prog.Procs[r.pos.proc]
	return &p.Blocks[r.pos.block].Insts[r.pos.inst]
}

func (r *refEmu) pcAt(pos position) int {
	return r.prog.Procs[pos.proc].Blocks[pos.block].Insts[pos.inst].PC
}

// advance moves to the next sequential instruction within the procedure.
func (r *refEmu) advance() position {
	p := r.prog.Procs[r.pos.proc]
	n := r.pos
	n.inst++
	if n.inst >= len(p.Blocks[n.block].Insts) {
		n.block++
		n.inst = 0
	}
	return n
}

// NextInto adapts Next to trace.Stream, so the reference can stand in
// for the decoded emulator wherever a stream is consumed.
func (r *refEmu) NextInto(d *trace.DynInst) bool {
	var ok bool
	*d, ok = r.Next()
	return ok
}

// Next executes one instruction and returns its dynamic record.
func (r *refEmu) Next() (trace.DynInst, bool) {
	if r.halt {
		return trace.DynInst{}, false
	}
	in := r.cur()
	d := trace.DynInst{
		Seq:  r.seq,
		PC:   in.PC,
		Op:   in.Op,
		Dst:  in.Dst,
		Src1: in.Src1,
		Src2: in.Src2,
		Hint: in.Hint,
	}
	if in.Op == isa.HintNop {
		d.Hint = int(in.Imm)
	}
	r.seq++

	next := r.advance()
	switch in.Op {
	case isa.Nop, isa.HintNop:
		// nothing
	case isa.Li:
		r.writeInt(in.Dst, in.Imm)
	case isa.Mov:
		r.writeInt(in.Dst, r.readInt(in.Src1))
	case isa.Add:
		r.writeInt(in.Dst, r.readInt(in.Src1)+r.readInt(in.Src2))
	case isa.Sub:
		r.writeInt(in.Dst, r.readInt(in.Src1)-r.readInt(in.Src2))
	case isa.And:
		r.writeInt(in.Dst, r.readInt(in.Src1)&r.readInt(in.Src2))
	case isa.Or:
		r.writeInt(in.Dst, r.readInt(in.Src1)|r.readInt(in.Src2))
	case isa.Xor:
		r.writeInt(in.Dst, r.readInt(in.Src1)^r.readInt(in.Src2))
	case isa.Shl:
		r.writeInt(in.Dst, r.readInt(in.Src1)<<(uint64(r.readInt(in.Src2))&63))
	case isa.Shr:
		r.writeInt(in.Dst, int64(uint64(r.readInt(in.Src1))>>(uint64(r.readInt(in.Src2))&63)))
	case isa.Slt:
		r.writeInt(in.Dst, boolToInt(r.readInt(in.Src1) < r.readInt(in.Src2)))
	case isa.Addi:
		r.writeInt(in.Dst, r.readInt(in.Src1)+in.Imm)
	case isa.Andi:
		r.writeInt(in.Dst, r.readInt(in.Src1)&in.Imm)
	case isa.Xori:
		r.writeInt(in.Dst, r.readInt(in.Src1)^in.Imm)
	case isa.Shli:
		r.writeInt(in.Dst, r.readInt(in.Src1)<<(uint64(in.Imm)&63))
	case isa.Shri:
		r.writeInt(in.Dst, int64(uint64(r.readInt(in.Src1))>>(uint64(in.Imm)&63)))
	case isa.Slti:
		r.writeInt(in.Dst, boolToInt(r.readInt(in.Src1) < in.Imm))
	case isa.Mul:
		r.writeInt(in.Dst, r.readInt(in.Src1)*r.readInt(in.Src2))
	case isa.Muli:
		r.writeInt(in.Dst, r.readInt(in.Src1)*in.Imm)
	case isa.Div:
		r.writeInt(in.Dst, safeDiv(r.readInt(in.Src1), r.readInt(in.Src2)))
	case isa.Rem:
		r.writeInt(in.Dst, safeRem(r.readInt(in.Src1), r.readInt(in.Src2)))
	case isa.FAdd:
		r.writeFP(in.Dst, r.readFP(in.Src1)+r.readFP(in.Src2))
	case isa.FSub:
		r.writeFP(in.Dst, r.readFP(in.Src1)-r.readFP(in.Src2))
	case isa.FMul:
		r.writeFP(in.Dst, r.readFP(in.Src1)*r.readFP(in.Src2))
	case isa.FDiv:
		v := r.readFP(in.Src2)
		if v == 0 {
			v = 1
		}
		r.writeFP(in.Dst, r.readFP(in.Src1)/v)
	case isa.FMov:
		r.writeFP(in.Dst, r.readFP(in.Src1))
	case isa.ItoF:
		r.writeFP(in.Dst, float64(r.readInt(in.Src1)))
	case isa.FtoI:
		r.writeInt(in.Dst, int64(r.readFP(in.Src1)))
	case isa.Ld:
		d.Addr = uint64(r.readInt(in.Src1)+in.Imm) &^ 7
		r.writeInt(in.Dst, r.mem.Load(d.Addr))
	case isa.LdF:
		d.Addr = uint64(r.readInt(in.Src1)+in.Imm) &^ 7
		r.writeFP(in.Dst, float64(r.mem.Load(d.Addr)))
	case isa.St:
		d.Addr = uint64(r.readInt(in.Src1)+in.Imm) &^ 7
		r.mem.Store(d.Addr, r.readInt(in.Src2))
	case isa.StF:
		d.Addr = uint64(r.readInt(in.Src1)+in.Imm) &^ 7
		r.mem.Store(d.Addr, int64(r.readFP(in.Src2)))
	case isa.Beq:
		d.Taken = r.readInt(in.Src1) == r.readInt(in.Src2)
		if d.Taken {
			next = position{r.pos.proc, in.Target, 0}
		}
	case isa.Bne:
		d.Taken = r.readInt(in.Src1) != r.readInt(in.Src2)
		if d.Taken {
			next = position{r.pos.proc, in.Target, 0}
		}
	case isa.Blt:
		d.Taken = r.readInt(in.Src1) < r.readInt(in.Src2)
		if d.Taken {
			next = position{r.pos.proc, in.Target, 0}
		}
	case isa.Bge:
		d.Taken = r.readInt(in.Src1) >= r.readInt(in.Src2)
		if d.Taken {
			next = position{r.pos.proc, in.Target, 0}
		}
	case isa.Jmp:
		d.Taken = true
		next = position{r.pos.proc, in.Target, 0}
	case isa.Call, isa.CallLib:
		d.Taken = true
		r.stack = append(r.stack, next)
		next = position{in.Target, 0, 0}
	case isa.Ret:
		d.Taken = true
		if len(r.stack) == 0 {
			return r.finish(d)
		}
		next = r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
	case isa.Halt:
		return r.finish(d)
	default:
		panic(fmt.Sprintf("emu: unhandled opcode %v", in.Op))
	}

	r.pos = next
	d.NextPC = r.pcAt(next)
	return d, true
}

// finish handles program completion: either halt or restart at the entry.
func (r *refEmu) finish(d trace.DynInst) (trace.DynInst, bool) {
	if r.Restart {
		r.pos = position{r.prog.Entry, 0, 0}
		r.stack = r.stack[:0]
		d.Taken = true
		d.NextPC = r.pcAt(r.pos)
		return d, true
	}
	r.halt = true
	d.NextPC = d.PC + isa.InstBytes
	return d, true
}
