package emu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TestOpcodeSemantics is a table test over every computational opcode:
// each case builds a two-instruction program (setup + op) and checks the
// architectural result. Together with the control-flow and memory tests
// in emu_test.go this covers the full ISA.
func TestOpcodeSemantics(t *testing.T) {
	type c struct {
		name  string
		build func(b *prog.Builder)
		reg   int   // register to inspect
		want  int64 // expected value
	}
	cases := []c{
		{"li", func(b *prog.Builder) { b.Li(isa.R(5), -42) }, 5, -42},
		{"mov", func(b *prog.Builder) { b.Li(isa.R(1), 7).Mov(isa.R(5), isa.R(1)) }, 5, 7},
		{"add", func(b *prog.Builder) { b.Li(isa.R(1), 3).Li(isa.R(2), 4).Add(isa.R(5), isa.R(1), isa.R(2)) }, 5, 7},
		{"sub", func(b *prog.Builder) { b.Li(isa.R(1), 3).Li(isa.R(2), 4).Sub(isa.R(5), isa.R(1), isa.R(2)) }, 5, -1},
		{"and", func(b *prog.Builder) { b.Li(isa.R(1), 0b1100).Li(isa.R(2), 0b1010).And(isa.R(5), isa.R(1), isa.R(2)) }, 5, 0b1000},
		{"or", func(b *prog.Builder) { b.Li(isa.R(1), 0b1100).Li(isa.R(2), 0b1010).Or(isa.R(5), isa.R(1), isa.R(2)) }, 5, 0b1110},
		{"xor", func(b *prog.Builder) { b.Li(isa.R(1), 0b1100).Li(isa.R(2), 0b1010).Xor(isa.R(5), isa.R(1), isa.R(2)) }, 5, 0b0110},
		{"shl", func(b *prog.Builder) { b.Li(isa.R(1), 3).Li(isa.R(2), 4).Shl(isa.R(5), isa.R(1), isa.R(2)) }, 5, 48},
		{"shr", func(b *prog.Builder) { b.Li(isa.R(1), 48).Li(isa.R(2), 4).Shr(isa.R(5), isa.R(1), isa.R(2)) }, 5, 3},
		{"shr-logical", func(b *prog.Builder) { b.Li(isa.R(1), -8).Li(isa.R(2), 62).Shr(isa.R(5), isa.R(1), isa.R(2)) }, 5, 3},
		{"slt-true", func(b *prog.Builder) { b.Li(isa.R(1), -5).Li(isa.R(2), 4).Slt(isa.R(5), isa.R(1), isa.R(2)) }, 5, 1},
		{"slt-false", func(b *prog.Builder) { b.Li(isa.R(1), 9).Li(isa.R(2), 4).Slt(isa.R(5), isa.R(1), isa.R(2)) }, 5, 0},
		{"addi", func(b *prog.Builder) { b.Li(isa.R(1), 3).Addi(isa.R(5), isa.R(1), -10) }, 5, -7},
		{"andi", func(b *prog.Builder) { b.Li(isa.R(1), 0xff).Andi(isa.R(5), isa.R(1), 0x0f) }, 5, 0x0f},
		{"xori", func(b *prog.Builder) { b.Li(isa.R(1), 0xff).Xori(isa.R(5), isa.R(1), 0x0f) }, 5, 0xf0},
		{"shli", func(b *prog.Builder) { b.Li(isa.R(1), 5).Shli(isa.R(5), isa.R(1), 2) }, 5, 20},
		{"shri", func(b *prog.Builder) { b.Li(isa.R(1), 20).Shri(isa.R(5), isa.R(1), 2) }, 5, 5},
		{"slti", func(b *prog.Builder) { b.Li(isa.R(1), 3).Slti(isa.R(5), isa.R(1), 4) }, 5, 1},
		{"mul", func(b *prog.Builder) { b.Li(isa.R(1), -3).Li(isa.R(2), 4).Mul(isa.R(5), isa.R(1), isa.R(2)) }, 5, -12},
		{"muli", func(b *prog.Builder) { b.Li(isa.R(1), 6).Muli(isa.R(5), isa.R(1), 7) }, 5, 42},
		{"div", func(b *prog.Builder) { b.Li(isa.R(1), -12).Li(isa.R(2), 4).Div(isa.R(5), isa.R(1), isa.R(2)) }, 5, -3},
		{"rem", func(b *prog.Builder) { b.Li(isa.R(1), 14).Li(isa.R(2), 4).Rem(isa.R(5), isa.R(1), isa.R(2)) }, 5, 2},
		{"fadd", func(b *prog.Builder) {
			b.Li(isa.R(1), 3).ItoF(isa.FP(0), isa.R(1)).
				Li(isa.R(2), 4).ItoF(isa.FP(1), isa.R(2)).
				FAdd(isa.FP(2), isa.FP(0), isa.FP(1)).FtoI(isa.R(5), isa.FP(2))
		}, 5, 7},
		{"fsub", func(b *prog.Builder) {
			b.Li(isa.R(1), 9).ItoF(isa.FP(0), isa.R(1)).
				Li(isa.R(2), 4).ItoF(isa.FP(1), isa.R(2)).
				FSub(isa.FP(2), isa.FP(0), isa.FP(1)).FtoI(isa.R(5), isa.FP(2))
		}, 5, 5},
		{"fmul", func(b *prog.Builder) {
			b.Li(isa.R(1), 6).ItoF(isa.FP(0), isa.R(1)).
				FMul(isa.FP(1), isa.FP(0), isa.FP(0)).FtoI(isa.R(5), isa.FP(1))
		}, 5, 36},
		{"fdiv", func(b *prog.Builder) {
			b.Li(isa.R(1), 12).ItoF(isa.FP(0), isa.R(1)).
				Li(isa.R(2), 4).ItoF(isa.FP(1), isa.R(2)).
				FDiv(isa.FP(2), isa.FP(0), isa.FP(1)).FtoI(isa.R(5), isa.FP(2))
		}, 5, 3},
		{"fdiv-by-zero-guard", func(b *prog.Builder) {
			b.Li(isa.R(1), 12).ItoF(isa.FP(0), isa.R(1)).
				FDiv(isa.FP(2), isa.FP(0), isa.FP(3)). // fp3 = 0 -> divisor forced to 1
				FtoI(isa.R(5), isa.FP(2))
		}, 5, 12},
		{"ld-st", func(b *prog.Builder) {
			b.Li(isa.R(1), 0x4000).Li(isa.R(2), 77).
				St(isa.R(2), isa.R(1), 16).
				Ld(isa.R(5), isa.R(1), 16)
		}, 5, 77},
		{"ldf-stf", func(b *prog.Builder) {
			b.Li(isa.R(1), 0x4000).Li(isa.R(2), 9).ItoF(isa.FP(0), isa.R(2)).
				StF(isa.FP(0), isa.R(1), 8).
				LdF(isa.FP(1), isa.R(1), 8).
				FtoI(isa.R(5), isa.FP(1))
		}, 5, 9},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := prog.NewBuilder(tc.name)
			pb := b.Proc("main").Entry()
			tc.build(b)
			pb.Halt()
			e := MustNew(b.MustBuild())
			for {
				if _, ok := e.Next(); !ok {
					break
				}
			}
			if got := e.IntReg(tc.reg); got != tc.want {
				t.Errorf("r%d = %d, want %d", tc.reg, got, tc.want)
			}
		})
	}
}

// runBothPaths executes the program under the decoded dispatch table and
// the reference interpreter and returns the final value of reg, failing
// if the two paths disagree on the value or the committed count. The
// edge-case tables below run through this so every specialised decoded
// arm is checked against the reference, not just the default path.
func runBothPaths(t *testing.T, p *prog.Program, reg int) int64 {
	t.Helper()
	run := func(next func() (trace.DynInst, bool)) int64 {
		n := int64(0)
		for {
			if _, ok := next(); !ok {
				return n
			}
			n++
		}
	}
	dec, ref := MustNew(p), newRef(p)
	dn, rn := run(dec.Next), run(ref.Next)
	dv, rv := dec.IntReg(reg), ref.IntReg(reg)
	if dv != rv || dn != rn {
		t.Errorf("decoded path (r%d=%d after %d) != reference (r%d=%d after %d)",
			reg, dv, dn, reg, rv, rn)
	}
	return dv
}

// TestOpcodeEdgeSemantics covers the operand classes the decoded path
// specialises: the div/rem safe paths (zero divisors, the MinInt64/-1
// overflow), shift-count masking, integer wraparound, and the FP
// round-trips — each case on both dispatch paths.
func TestOpcodeEdgeSemantics(t *testing.T) {
	const minInt = -9223372036854775808
	type c struct {
		name  string
		build func(b *prog.Builder)
		reg   int
		want  int64
	}
	cases := []c{
		// Safe division: zero divisors produce 0, the two's-complement
		// overflow quotient saturates to MinInt64 and its remainder is 0.
		{"div-by-zero", func(b *prog.Builder) {
			b.Li(isa.R(1), 7).Div(isa.R(5), isa.R(1), isa.R(2))
		}, 5, 0},
		{"rem-by-zero", func(b *prog.Builder) {
			b.Li(isa.R(1), 7).Rem(isa.R(5), isa.R(1), isa.R(2))
		}, 5, 0},
		{"div-overflow", func(b *prog.Builder) {
			b.Li(isa.R(1), minInt).Li(isa.R(2), -1).Div(isa.R(5), isa.R(1), isa.R(2))
		}, 5, minInt},
		{"rem-overflow", func(b *prog.Builder) {
			b.Li(isa.R(1), minInt).Li(isa.R(2), -1).Rem(isa.R(5), isa.R(1), isa.R(2))
		}, 5, 0},
		// Shift counts are masked to 6 bits, register and immediate forms
		// alike; negative counts mask to 63.
		{"shl-count-64", func(b *prog.Builder) {
			b.Li(isa.R(1), 5).Li(isa.R(2), 64).Shl(isa.R(5), isa.R(1), isa.R(2))
		}, 5, 5},
		{"shl-count-neg", func(b *prog.Builder) {
			b.Li(isa.R(1), 5).Li(isa.R(2), -1).Shl(isa.R(5), isa.R(1), isa.R(2))
		}, 5, minInt},
		{"shr-count-neg", func(b *prog.Builder) {
			b.Li(isa.R(1), -8).Li(isa.R(2), -1).Shr(isa.R(5), isa.R(1), isa.R(2))
		}, 5, 1},
		{"shli-imm-mask", func(b *prog.Builder) {
			b.Li(isa.R(1), 3).Shli(isa.R(5), isa.R(1), 65)
		}, 5, 6},
		{"shri-imm-mask", func(b *prog.Builder) {
			b.Li(isa.R(1), 8).Shri(isa.R(5), isa.R(1), 66)
		}, 5, 2},
		// Two's-complement wraparound, no traps.
		{"add-wrap", func(b *prog.Builder) {
			b.Li(isa.R(1), 9223372036854775807).Addi(isa.R(5), isa.R(1), 1)
		}, 5, minInt},
		{"mul-wrap", func(b *prog.Builder) {
			b.Li(isa.R(1), 9223372036854775807).Li(isa.R(2), 2).Mul(isa.R(5), isa.R(1), isa.R(2))
		}, 5, -2},
		// FP conversions: negatives round-trip; the fdiv zero-divisor
		// guard substitutes 1 so the quotient is the dividend.
		{"itof-ftoi-neg", func(b *prog.Builder) {
			b.Li(isa.R(1), -7).ItoF(isa.FP(0), isa.R(1)).FtoI(isa.R(5), isa.FP(0))
		}, 5, -7},
		{"fdiv-zero-neg", func(b *prog.Builder) {
			b.Li(isa.R(1), -12).ItoF(isa.FP(0), isa.R(1)).
				FDiv(isa.FP(2), isa.FP(0), isa.FP(3)).FtoI(isa.R(5), isa.FP(2))
		}, 5, -12},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := prog.NewBuilder(tc.name)
			b.Proc("main").Entry()
			tc.build(b)
			b.Halt()
			if got := runBothPaths(t, b.MustBuild(), tc.reg); got != tc.want {
				t.Errorf("r%d = %d, want %d", tc.reg, got, tc.want)
			}
		})
	}
}

// TestBranchBlockBoundaries exercises branches whose targets sit exactly
// at block seams — the positions the decoded table flattens: a taken
// branch whose target is the very next block (taken and fallthrough
// coincide), a backward branch to a loop header, and a skip over a
// middle block into the program's final block.
func TestBranchBlockBoundaries(t *testing.T) {
	t.Run("taken-to-next-block", func(t *testing.T) {
		b := prog.NewBuilder("seam")
		b.Proc("main").Entry().
			Li(isa.R(1), 1).
			Beq(isa.R(1), isa.R(1), "next"). // last inst of block; target is next block
			Label("next").
			Li(isa.R(5), 11).
			Halt()
		if got := runBothPaths(t, b.MustBuild(), 5); got != 11 {
			t.Errorf("r5 = %d, want 11", got)
		}
	})
	t.Run("backward-to-header", func(t *testing.T) {
		b := prog.NewBuilder("loop")
		b.Proc("main").Entry().
			Li(isa.R(1), 3). // counter
			Li(isa.R(5), 0). // accumulator
			Label("head").
			Add(isa.R(5), isa.R(5), isa.R(1)).
			Addi(isa.R(1), isa.R(1), -1).
			Bne(isa.R(1), isa.R(0), "head").
			Halt()
		if got := runBothPaths(t, b.MustBuild(), 5); got != 6 {
			t.Errorf("r5 = %d, want 3+2+1", got)
		}
	})
	t.Run("skip-into-final-block", func(t *testing.T) {
		b := prog.NewBuilder("skip")
		b.Proc("main").Entry().
			Li(isa.R(1), 1).
			Bne(isa.R(1), isa.R(0), "end").
			Label("mid").
			Li(isa.R(5), 100).
			Label("end").
			Li(isa.R(6), 1).
			Halt()
		if got := runBothPaths(t, b.MustBuild(), 5); got != 0 {
			t.Errorf("r5 = %d, want 0 (middle block skipped)", got)
		}
	})
}

// TestBranchVariants checks every conditional branch opcode both ways.
func TestBranchVariants(t *testing.T) {
	type c struct {
		name  string
		a, b  int64
		brand func(pb *prog.Builder, x, y isa.Reg, label string) *prog.Builder
		taken bool
	}
	cases := []c{
		{"beq-eq", 5, 5, (*prog.Builder).Beq, true},
		{"beq-ne", 5, 6, (*prog.Builder).Beq, false},
		{"bne-ne", 5, 6, (*prog.Builder).Bne, true},
		{"bne-eq", 5, 5, (*prog.Builder).Bne, false},
		{"blt-lt", -1, 0, (*prog.Builder).Blt, true},
		{"blt-ge", 0, 0, (*prog.Builder).Blt, false},
		{"bge-ge", 0, 0, (*prog.Builder).Bge, true},
		{"bge-lt", -1, 0, (*prog.Builder).Bge, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			b := prog.NewBuilder(tc.name)
			pb := b.Proc("main").Entry().
				Li(isa.R(1), tc.a).
				Li(isa.R(2), tc.b)
			tc.brand(pb, isa.R(1), isa.R(2), "hit")
			pb.Li(isa.R(5), 100). // fallthrough path
						Halt().
						Label("hit").
						Li(isa.R(5), 200).
						Halt()
			e := MustNew(b.MustBuild())
			for {
				if _, ok := e.Next(); !ok {
					break
				}
			}
			want := int64(100)
			if tc.taken {
				want = 200
			}
			if got := e.IntReg(5); got != want {
				t.Errorf("r5 = %d, want %d", got, want)
			}
		})
	}
}
