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

// Class returns the functional-unit class.
func (d *DynInst) Class() isa.Class { return d.Op.Class() }

// IsHintCarrier reports whether the record changes max_new_range.
func (d *DynInst) IsHintCarrier() bool { return d.Hint > 0 }

// ControlFlow reports whether the instruction can redirect fetch.
func (d *DynInst) ControlFlow() bool { return d.Op.IsBranch() || d.Op.IsCtrl() }

// Redirects reports whether fetch must continue at a non-sequential PC.
func (d *DynInst) Redirects() bool {
	return d.ControlFlow() && d.NextPC != d.PC+isa.InstBytes
}

// Stream yields dynamic instructions in commit order. Next returns false
// when the program has halted or the budget is exhausted.
type Stream interface {
	Next() (DynInst, bool)
}

// SliceStream adapts a slice to a Stream; used by tests.
type SliceStream struct {
	Insts []DynInst
	pos   int
}

// Next implements Stream.
func (s *SliceStream) Next() (DynInst, bool) {
	if s.pos >= len(s.Insts) {
		return DynInst{}, false
	}
	d := s.Insts[s.pos]
	s.pos++
	return d, true
}

// Limit wraps a stream and cuts it after n instructions.
type Limit struct {
	S Stream
	N int64
}

// Next implements Stream.
func (l *Limit) Next() (DynInst, bool) {
	if l.N <= 0 {
		return DynInst{}, false
	}
	l.N--
	return l.S.Next()
}
