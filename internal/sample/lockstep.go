package sample

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/prog"
	"repro/internal/sim"
)

// This file is the lockstep sweep engine: ONE emulator + functional-
// warming stream drives the sampling schedule, and each detailed window
// fans out to K detailed cores with different configurations —
// K per-cell reports from one functional pass. The warm state a window
// starts from is a pure function of the stream position and the warming
// regime, never of any cell's detailed configuration (the same invariant
// checkpoint sharing rests on), so every cell's report is bit-identical
// to what a solo run of that configuration would produce; the
// differential suite in lockstep_test.go holds both engines to that.
//
// Cells must share their warming identity — cache geometry and branch-
// predictor configuration — because the single stream warms one
// hierarchy. That is exactly the equivalence class the campaign layer's
// CheckpointKey hashes, so grouping jobs by that key is always safe.
// Axes that only touch the detailed core (IQ geometry, power knobs,
// ROB size) are free to differ per cell.

// Cell is one configuration's outcome of a lockstep run. A cell fails
// alone: its Err is set and its Report finalized at the failure point,
// while the remaining cells keep measuring.
type Cell struct {
	Report *Report
	Err    error
}

// RunLockstepStored executes a sampled simulation of the program under
// K processor configurations in lockstep over one functional stream,
// with a checkpoint store attached: one warming pass (resumed from the
// store when it holds an artifact under key, generated write-through
// when not) feeds every cell's detailed windows. A nil store or empty
// key disables checkpointing. Resumed runs are bit-identical to
// warm-from-scratch runs: the window schedule is a pure function of
// (budget, regime), and each window executes on a fork of the stream
// state at its start, so neither path can perturb the other's numbers.
// The returned error reports setup problems or cancellation; per-cell
// simulation failures land in the cells, leaving the others unharmed.
// Run is the storeless K=1 case of this function, so the two paths
// cannot drift apart.
func RunLockstepStored(ctx context.Context, cfgs []sim.Config, p *prog.Program, budget int64, sc Config, store *ckpt.Store, key string) ([]Cell, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sample: lockstep run needs at least one configuration")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("sample: sampled runs need a positive budget, got %d", budget)
	}
	for i := range cfgs {
		if cfgs[i].Caches != cfgs[0].Caches || cfgs[i].Bpred != cfgs[0].Bpred {
			return nil, fmt.Errorf("sample: lockstep cell %d has a different warming identity (cache/bpred geometry) than cell 0", i)
		}
	}
	if store == nil || key == "" {
		return generateK(ctx, cfgs, p, budget, sc, nil, "")
	}
	if cells, err, ok := resumeK(ctx, cfgs, p, budget, sc, store, key); ok {
		return cells, err
	}
	// Miss. Serialize in-process generation per key: the winner
	// generates, everyone who blocked here resumes from the published
	// artifact (re-read from disk so each job attaches its own program).
	unlock := store.Lock(key)
	defer unlock()
	if cells, err, ok := resumeK(ctx, cfgs, p, budget, sc, store, key); ok {
		return cells, err
	}
	return generateK(ctx, cfgs, p, budget, sc, store, key)
}

// batch is the per-cell side of a lockstep run: one report per
// configuration, each cell's failure, how many cells still measure, and
// each cell's fork of the window state and detailed core, both reused
// from window to window.
type batch struct {
	cfgs    []sim.Config
	reports []*Report
	errs    []error
	live    int
	forks   []ckpt.Window
	cores   []sim.Core
}

func newBatch(cfgs []sim.Config) *batch {
	b := &batch{
		cfgs:    cfgs,
		reports: make([]*Report, len(cfgs)),
		errs:    make([]error, len(cfgs)),
		live:    len(cfgs),
		forks:   make([]ckpt.Window, len(cfgs)),
		cores:   make([]sim.Core, len(cfgs)),
	}
	for i := range b.reports {
		b.reports[i] = &Report{Confidence: confidence}
	}
	return b
}

// fail retires one cell: its report ends at stream position at, and the
// rest of the batch keeps measuring.
func (b *batch) fail(i int, err error, at int64) {
	b.errs[i] = err
	b.reports[i].finalize(at)
	b.live--
}

// stop retires every cell still measuring (cancellation).
func (b *batch) stop(err error, at int64) {
	for i := range b.errs {
		if b.errs[i] == nil {
			b.fail(i, err, at)
		}
	}
}

// window measures one detailed window on every live cell, each on its
// own fork of the window's warm state. The last live cell runs on win
// itself, which makes K=1 byte-for-byte the single-configuration path;
// the caller must not need win's hierarchy and predictor afterwards. A
// cell whose window fails is retired at stream position failAt.
func (b *batch) window(ctx context.Context, p *prog.Program, win *ckpt.Window, detail int64, sc Config, failAt int64) {
	forks := b.live
	for i := range b.cfgs {
		if b.errs[i] != nil {
			continue
		}
		cw := win
		if forks--; forks > 0 {
			cw = &b.forks[i]
			forkInto(cw, win)
		}
		st, err := runWindow(ctx, &b.cores[i], b.cfgs[i], p, cw, detail, sc)
		b.reports[i].Windows = append(b.reports[i].Windows, Window{StartSeq: win.Ckpt.Seq(), Stats: st})
		if err != nil {
			b.fail(i, err, failAt)
		}
	}
}

// forkInto copies win into dst, reusing dst's hierarchy and predictor
// storage from the previous window (allocating it on first use). The
// architectural checkpoint is shared: a window only restores from it.
func forkInto(dst, win *ckpt.Window) {
	if dst.Mem == nil {
		dst.Mem, dst.Bp = new(cache.Hierarchy), new(bpred.Predictor)
	}
	win.Mem.CopyInto(dst.Mem)
	win.Bp.CopyInto(dst.Bp)
	dst.StartReal, dst.LastHint, dst.Ckpt = win.StartReal, win.LastHint, win.Ckpt
}

// cells zips reports and errors into the caller-facing form.
func (b *batch) cells() []Cell {
	cells := make([]Cell, len(b.reports))
	for i := range b.reports {
		cells[i] = Cell{Report: b.reports[i], Err: b.errs[i]}
	}
	return cells
}
