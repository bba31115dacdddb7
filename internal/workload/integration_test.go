package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// archSnapshot captures the architectural effect of a run: integer
// registers plus a checksum of the first 64KB of the data segment.
type archSnapshot struct {
	regs [isa.IntRegs]int64
	mem  uint64
}

// runReal executes the program until n real (non-hint) instructions have
// retired and snapshots the architectural state.
func runReal(t *testing.T, p *prog.Program, n int) archSnapshot {
	t.Helper()
	e, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	executed := 0
	for executed < n {
		d, ok := e.Next()
		if !ok {
			t.Fatal("program halted unexpectedly")
		}
		if d.Op != isa.HintNop {
			executed++
		}
	}
	var s archSnapshot
	for i := 0; i < isa.IntRegs; i++ {
		s.regs[i] = e.IntReg(i)
	}
	for w := uint64(0); w < 8192; w++ {
		addr := p.DataBase + 8*w
		s.mem = s.mem*1099511628211 + uint64(e.Mem().Load(addr))
	}
	return s
}

// TestInstrumentationPreservesSemantics verifies, for every benchmark and
// every instrumentation mode, that the instrumented program computes
// exactly the same architectural state as the original after the same
// number of real instructions — hint NOOPs and tags must be pure
// metadata.
func TestInstrumentationPreservesSemantics(t *testing.T) {
	const window = 30_000
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			want := runReal(t, b.Build(42), window)
			modes := []struct {
				name string
				opt  core.Options
			}{
				{"noop", core.Options{Mode: core.ModeNOOP}},
				{"tag", core.Options{Mode: core.ModeTag}},
				{"improved", core.Options{Mode: core.ModeTag, Improved: true}},
			}
			for _, m := range modes {
				p := b.Build(42)
				if _, err := core.Instrument(p, m.opt); err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				got := runReal(t, p, window)
				if got != want {
					t.Errorf("%s: architectural state diverged from baseline", m.name)
				}
			}
		})
	}
}

// TestHintValuesWithinHardwareRange: every dynamic hint must be
// representable in the hardware's max_new_range register (1..capacity).
func TestHintValuesWithinHardwareRange(t *testing.T) {
	for _, b := range Suite() {
		p := b.Build(42)
		if _, err := core.Instrument(p, core.Options{Mode: core.ModeNOOP}); err != nil {
			t.Fatal(err)
		}
		e, err := emu.New(p)
		if err != nil {
			t.Fatal(err)
		}
		e.Restart = true
		for i := 0; i < 20_000; i++ {
			d, ok := e.Next()
			if !ok {
				break
			}
			// Hint 0 means none, so a carried hint lies in [1,80].
			if d.Hint < 0 || d.Hint > 80 {
				t.Fatalf("%s: dynamic hint %d out of [1,80]", b.Name, d.Hint)
			}
		}
	}
}
