package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// TestSafetyCyclesClamp pins the MaxCycles safety-net arithmetic: the
// budget*20 product must saturate, not wrap negative, for huge budgets
// (a negative MaxCycles would silently disable the hang detector).
func TestSafetyCyclesClamp(t *testing.T) {
	cases := []struct {
		budget int64
		want   int64
	}{
		{1, 20},
		{500_000, 10_000_000},
		{math.MaxInt64 / 20, math.MaxInt64 / 20 * 20},
		{math.MaxInt64/20 + 1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		if got := SafetyCycles(c.budget); got != c.want {
			t.Errorf("SafetyCycles(%d) = %d, want %d", c.budget, got, c.want)
		}
		if got := SafetyCycles(c.budget); got <= 0 {
			t.Errorf("SafetyCycles(%d) = %d overflowed", c.budget, got)
		}
	}
}

// loopProgram is a tight endless-ish loop for cancellation tests.
func loopProgram() *prog.Program {
	b := prog.NewBuilder("loop")
	b.Proc("main").Entry().
		Li(isa.R(1), 1<<40).
		Label("l").
		Addi(isa.R(2), isa.R(2), 1).
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "l").
		Halt()
	return b.MustBuild()
}

// TestRunContextCancelsMidJob verifies the cycle loop notices
// cancellation long before a huge budget completes — the property
// campaign cancellation relies on.
func TestRunContextCancelsMidJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Stats, 1)
	go func() {
		// A budget that would take minutes to simulate.
		st, err := RunProgramContext(ctx, DefaultConfig(), loopProgram(), 1<<40)
		if err == nil {
			t.Error("cancelled run returned nil error")
		}
		done <- st
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case st := <-done:
		if st.Cycles == 0 {
			t.Error("cancelled run returned no partial stats")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not take effect mid-job")
	}
}

// TestRunContextAlreadyCancelled verifies an already-cancelled context
// stops the run almost immediately.
func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RunProgramContext(ctx, DefaultConfig(), loopProgram(), 1<<40)
	if err == nil {
		t.Fatal("want context error")
	}
	if st.Cycles > 2*ctxPollCycles {
		t.Fatalf("ran %d cycles after pre-cancelled ctx; want <= %d", st.Cycles, 2*ctxPollCycles)
	}
}

// TestRunContextAlreadyCancelledLongStalls is
// TestRunContextAlreadyCancelled with main memory 10,000 cycles away. The
// cold I-cache miss at cycle 1 stalls fetch for one whole memory access,
// a single skip across the poll boundaries at 4096 and 8192 cycles: the
// run must stop at the end of that skip, not at a later cycle that lands
// on a boundary.
func TestRunContextAlreadyCancelledLongStalls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig()
	cfg.Caches.MemCycles = 10_000
	st, err := RunProgramContext(ctx, cfg, loopProgram(), 1<<40)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if limit := int64(cfg.Caches.MemCycles + completionRing); st.Cycles > limit {
		t.Fatalf("ran %d cycles after pre-cancelled ctx; want <= %d, the end of the first skip", st.Cycles, limit)
	}
}

// storeLoadProgram mixes stores, dependent loads and branches so the
// disambiguation paths (which compare DynInst.Seq values) are exercised.
func storeLoadProgram() *prog.Program {
	b := prog.NewBuilder("mem")
	base := b.AppendData(make([]int64, 32)...)
	b.Proc("main").Entry().
		Li(isa.R(1), 1<<40).
		Li(isa.R(2), int64(base)).
		Label("loop").
		Addi(isa.R(3), isa.R(3), 8).
		Andi(isa.R(3), isa.R(3), 31*8).
		Add(isa.R(4), isa.R(2), isa.R(3)).
		St(isa.R(5), isa.R(4), 0).
		Ld(isa.R(6), isa.R(4), 0).
		Add(isa.R(5), isa.R(5), isa.R(6)).
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	return b.MustBuild()
}

// TestResumableMidStream verifies a core built over a mid-run emulator
// checkpoint (non-zero starting Seq) simulates correctly: same number of
// committed instructions as requested and loads/stores disambiguate
// without assuming Seq 0.
func TestResumableMidStream(t *testing.T) {
	p := storeLoadProgram()
	e := emu.MustNew(p)
	e.Restart = true
	// Advance half a million instructions so Seq is far from zero.
	for i := 0; i < 500_000; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatal("program halted early")
		}
	}
	cp := e.Checkpoint()
	if cp.Seq() == 0 {
		t.Fatal("checkpoint at Seq 0; test needs a mid-stream position")
	}
	resumed, err := emu.NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Restart = true
	cfg := DefaultConfig()
	cfg.MaxInsts = 10_000
	cfg.MaxCycles = SafetyCycles(cfg.MaxInsts)
	core, err := New(cfg, resumed)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Run()
	if st.CommittedReal != 10_000 {
		t.Fatalf("mid-stream core committed %d, want 10000", st.CommittedReal)
	}
	if st.IPC() <= 0 {
		t.Fatalf("mid-stream IPC = %v", st.IPC())
	}
}
