package emu

import (
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// This file is the emulator's decoded-trace cache: a flat dispatch table
// over the linked program, indexed by PC/isa.InstBytes (Link assigns PCs
// sequentially across procedures, so the flat index is total program
// order). Each entry carries a prebuilt trace.DynInst template plus the
// predecoded immediate and control target, so the hot NextInto loop does
// one table index, one struct copy and one switch — no per-instruction
// block walking, field-by-field record assembly or PC lookups. The table
// is a pure function of the linked program and is shared by every
// emulator over it via the program's decoded-stash slot; Link invalidates
// it on any structural change.
//
// The reference interpreter in ref_test.go executes the same semantics
// from structural positions with per-instruction decode:
// TestDecodeDifferential, FuzzDecodeDifferential and the opcode table
// tests hold the two executions to identical DynInst sequences and
// architectural state.

// decEntry is one predecoded instruction.
type decEntry struct {
	// d is the DynInst template: PC, Op, Dst, Src1, Src2 and Hint are
	// final (HintNop's payload already promoted); Seq, Taken, NextPC and
	// Addr are filled per dynamic instance.
	d   trace.DynInst
	imm int64
	// tgt is the flat index of the control target: the first instruction
	// of the target block for branches and jumps, the entry instruction
	// of the callee for calls; -1 otherwise.
	tgt int32
}

// decProgram is the decoded form of one linked program.
type decProgram struct {
	entries []decEntry
	posOf   []position // flat index -> (proc, block, inst), for checkpoints
	entry   int32      // flat index of the entry procedure's first instruction
}

// flatOf converts a structural position to its flat index.
func (dp *decProgram) flatOf(p *prog.Program, pos position) int32 {
	return int32(p.Procs[pos.proc].Blocks[pos.block].Insts[pos.inst].PC / isa.InstBytes)
}

// decode builds the dispatch table for a linked program.
func decode(p *prog.Program) *decProgram {
	n := p.NumInsts()
	dp := &decProgram{entries: make([]decEntry, n), posOf: make([]position, n)}
	for pi, pr := range p.Procs {
		for bi, b := range pr.Blocks {
			for ii := range b.Insts {
				in := &b.Insts[ii]
				f := in.PC / isa.InstBytes
				en := &dp.entries[f]
				en.d = trace.DynInst{
					PC:   in.PC,
					Op:   in.Op,
					Dst:  in.Dst,
					Src1: in.Src1,
					Src2: in.Src2,
					Hint: in.Hint,
				}
				if in.Op == isa.HintNop {
					en.d.Hint = int(in.Imm)
				}
				en.imm = in.Imm
				en.tgt = -1
				switch {
				case in.Op.IsBranch() || in.Op == isa.Jmp:
					en.tgt = int32(pr.Blocks[in.Target].Insts[0].PC / isa.InstBytes)
				case in.Op.IsCall():
					en.tgt = int32(p.Procs[in.Target].Blocks[0].Insts[0].PC / isa.InstBytes)
				}
				dp.posOf[f] = position{pi, bi, ii}
			}
		}
	}
	dp.entry = int32(p.Procs[p.Entry].Blocks[0].Insts[0].PC / isa.InstBytes)
	return dp
}

// decodeOf returns the program's shared decode table, building and
// stashing it on first use. Two emulators racing here both build a valid
// table and one wins the stash — either result is correct.
func decodeOf(p *prog.Program) *decProgram {
	if dp, ok := p.Decoded().(*decProgram); ok {
		return dp
	}
	dp := decode(p)
	p.SetDecoded(dp)
	return dp
}
