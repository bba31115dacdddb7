package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/trace"
)

// resetWindow is one window of TestResetMatchesFresh: a machine, where
// in the benchmark's stream it starts, and how it ends.
type resetWindow struct {
	name  string
	bench string
	tech  int
	skip  int64 // stream instructions executed before the window
	insts int64 // MaxInsts
	split int64 // when positive, the first of two segments ends here
	hint  int   // PresetHint argument
	// cancelled runs the window under an already-cancelled context; it
	// stops at the first poll.
	cancelled bool
	// cut marks a window that must stop short of MaxInsts, by MaxCycles
	// or cancellation, with work in flight.
	cut bool
	cfg func(*Config)
}

// resetStream returns the benchmark's stream after skip instructions.
func resetStream(t *testing.T, w resetWindow) trace.Stream {
	t.Helper()
	e, err := emu.New(program(t, w.bench, w.tech))
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	var d trace.DynInst
	for i := int64(0); i < w.skip; i++ {
		if !e.NextInto(&d) {
			t.Fatal("emulator halted")
		}
	}
	return e
}

// runResetWindow runs w on c, which is set up for it, and returns each
// segment's Stats and the error that ended the run.
func runResetWindow(t *testing.T, c *Core, w resetWindow) ([]Stats, error) {
	t.Helper()
	ctx := context.Background()
	if w.cancelled {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		ctx = cctx
	}
	c.PresetHint(w.hint)
	targets := []int64{0}
	if w.split > 0 {
		targets = []int64{w.split, 0}
	}
	var stats []Stats
	for _, target := range targets {
		st, err := c.RunSegment(ctx, target)
		stats = append(stats, st)
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// TestResetMatchesFresh runs windows back to back on one core, reset
// between them, as the sampled engine runs a cell's windows. The
// windows change the issue queue (80 and 16 entries, collapsible), the
// ROB, LSQ and register files (some keep the geometry, some change it)
// and the control (hints with a preset hint, adaptive); one is cut short
// by MaxCycles and one stopped by a cancelled context, each with the
// pipeline full. Every window's Stats, segment by segment, must be those
// of a new core (NewResumable) on the same stream, hierarchy and
// predictor, and the two runs must leave the hierarchy and predictor in
// the same state.
func TestResetMatchesFresh(t *testing.T) {
	windows := []resetWindow{
		{name: "default", bench: "gzip", tech: techBaseline, insts: 20_000},
		{name: "iq16-small-rob-lsq-regs", bench: "gcc", tech: techBaseline, skip: 5_000, insts: 10_000, cfg: func(cfg *Config) {
			cfg.IQ.Entries, cfg.ROBSize, cfg.LSQSize = 16, 48, 12
			cfg.IntRF.Regs, cfg.FPRF.Regs = 64, 64
		}},
		{name: "collapsible-hints", bench: "vortex", tech: techExtension, skip: 2_000, insts: 10_000, split: 3_000, hint: 12, cfg: func(cfg *Config) {
			cfg.IQ.Collapsible = true
		}},
		{name: "max-cycles-cut", bench: "mcf", tech: techBaseline, skip: 1_000, insts: 50_000, cut: true, cfg: func(cfg *Config) {
			cfg.MaxCycles = 2_999
		}},
		{name: "adaptive-big-rob-lsq-regs", bench: "bzip2", tech: techAbella, skip: 3_000, insts: 15_000, cfg: func(cfg *Config) {
			cfg.ROBSize, cfg.LSQSize = 256, 100
			cfg.IntRF.Regs, cfg.FPRF.Regs = 160, 160
			cfg.Adaptive.IntervalCycles = 500
		}},
		{name: "cancelled", bench: "twolf", tech: techNOOP, skip: 500, insts: 50_000, hint: 30, cancelled: true, cut: true},
		{name: "default-again-hints", bench: "gzip", tech: techImproved, skip: 7_000, insts: 12_000, split: 4_000, hint: 20},
		{name: "iq16-same-geometry", bench: "gcc", tech: techBaseline, skip: 9_000, insts: 8_000, cfg: func(cfg *Config) {
			cfg.IQ.Entries, cfg.ROBSize, cfg.LSQSize = 16, 48, 12
			cfg.IntRF.Regs, cfg.FPRF.Regs = 64, 64
		}},
	}
	base := DefaultConfig()
	mem, err := cache.NewHierarchy(base.Caches)
	if err != nil {
		t.Fatal(err)
	}
	bp := bpred.New(base.Bpred)
	var reused Core
	for _, w := range windows {
		cfg := DefaultConfig()
		cfg.Control = techniques[w.tech].ctrl
		cfg.MaxInsts = w.insts
		cfg.MaxCycles = SafetyCycles(w.insts)
		if w.cfg != nil {
			w.cfg(&cfg)
		}
		// The new core runs on copies of the warm state the reset core
		// runs on, which carries over from window to window.
		freshMem, freshBp := new(cache.Hierarchy), new(bpred.Predictor)
		mem.CopyInto(freshMem)
		bp.CopyInto(freshBp)
		fresh, err := NewResumable(cfg, resetStream(t, w), freshMem, freshBp)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := runResetWindow(t, fresh, w)
		if err := reused.Reset(cfg, resetStream(t, w), mem, bp); err != nil {
			t.Fatal(err)
		}
		got, gotErr := runResetWindow(t, &reused, w)

		if w.cancelled != errors.Is(gotErr, context.Canceled) || !errors.Is(wantErr, gotErr) {
			t.Fatalf("%s: reset core ended with %v, new core with %v", w.name, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d segments on the reset core, %d on a new one", w.name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				for _, d := range statsDiff(got[i], want[i]) {
					t.Errorf("%s: segment %d, reset core vs new core: %s", w.name, i, d)
				}
			}
		}
		if !bytes.Equal(mem.AppendState(nil), freshMem.AppendState(nil)) ||
			!bytes.Equal(bp.AppendState(nil), freshBp.AppendState(nil)) {
			t.Errorf("%s: the runs left different warm state", w.name)
		}
		// A cut window leaves work in flight, which the next reset must
		// discard.
		if last := got[len(got)-1]; w.cut && (last.CommittedReal >= w.insts || reused.robCount == 0 || reused.q.Count() == 0) {
			t.Errorf("%s: stopped at %d of %d instructions with %d ROB and %d queue entries; want a cut mid-flight",
				w.name, last.CommittedReal, w.insts, reused.robCount, reused.q.Count())
		}
	}
}
