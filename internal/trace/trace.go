// Package trace defines the dynamic instruction records that flow from the
// functional emulator to the timing simulator. The timing model is
// trace-driven on the committed path: every record carries its real branch
// outcome and memory address, so the simulator can model predictors and
// caches exactly while never simulating wrong-path data.
package trace

import "repro/internal/isa"

// DynInst is one committed dynamic instruction.
type DynInst struct {
	Seq  int64 // commit order, starting at 0
	PC   int   // static instruction address
	Op   isa.Op
	Dst  isa.Reg // destination register (RegNone or RZero = none)
	Src1 isa.Reg
	Src2 isa.Reg

	// Control flow: Taken is the actual outcome for conditional branches
	// (always true for jumps/calls/returns); NextPC is the address of the
	// next committed instruction.
	Taken  bool
	NextPC int

	// Addr is the effective address for loads and stores.
	Addr uint64

	// Hint carries an issue-queue size: for a HintNop it is the NOOP's
	// payload; for a tagged real instruction it is the Extension tag
	// (0 = no hint).
	Hint int
}

// Stream yields dynamic instructions in commit order. NextInto fills
// every field of the caller's record with the next instruction and
// reports true, or reports false when the program has halted or the
// budget is exhausted. Once it returns false it keeps returning false.
// Filling the caller's record, rather than returning one, lets the
// simulator's fetch queue and the sampled engine's warming loop keep one
// record per slot instead of copying each instruction twice.
type Stream interface {
	NextInto(d *DynInst) bool
}
