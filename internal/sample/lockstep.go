package sample

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/prog"
	"repro/internal/sim"
)

// This file is the lockstep sweep engine: ONE emulator + functional-
// warming stream drives the sampling schedule, and each detailed window
// fans out to K sim.NewResumable cores with different configurations —
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
// K processor configurations in lockstep over one functional stream —
// the K-configuration generalisation of RunStored: one warming pass
// (resumed from the store when the artifact exists, generated
// write-through when not) feeds every cell's detailed windows. The
// returned error reports setup problems or cancellation; per-cell
// simulation failures land in the cells, leaving the others unharmed.
// The single-configuration entry points are the K=1 special case of
// this function, so the two paths cannot drift apart.
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
// configuration, each cell's failure, and how many cells still measure.
type batch struct {
	cfgs    []sim.Config
	reports []*Report
	errs    []error
	live    int
}

func newBatch(cfgs []sim.Config, sc Config) *batch {
	b := &batch{
		cfgs:    cfgs,
		reports: make([]*Report, len(cfgs)),
		errs:    make([]error, len(cfgs)),
		live:    len(cfgs),
	}
	for i := range b.reports {
		b.reports[i] = &Report{Confidence: sc.Confidence}
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
// own fork of the window's warm state. The last live cell consumes win
// itself, which makes K=1 byte-for-byte the single-configuration path.
// A cell whose window fails is retired at stream position failAt.
func (b *batch) window(ctx context.Context, p *prog.Program, win *ckpt.Window, detail int64, sc Config, failAt int64) {
	forks := b.live
	for i := range b.cfgs {
		if b.errs[i] != nil {
			continue
		}
		cw := win
		if forks--; forks > 0 {
			cw = &ckpt.Window{
				StartReal: win.StartReal,
				LastHint:  win.LastHint,
				Ckpt:      win.Ckpt,
				Mem:       win.Mem.Clone(),
				Bp:        win.Bp.Clone(),
			}
		}
		st, err := runWindow(ctx, b.cfgs[i], p, cw, detail, sc)
		b.reports[i].Windows = append(b.reports[i].Windows, Window{StartSeq: win.Ckpt.Seq(), Stats: st})
		if err != nil {
			b.fail(i, err, failAt)
		}
	}
}

// cells zips reports and errors into the caller-facing form.
func (b *batch) cells() []Cell {
	cells := make([]Cell, len(b.reports))
	for i := range b.reports {
		cells[i] = Cell{Report: b.reports[i], Err: b.errs[i]}
	}
	return cells
}

// oneCell converts a K=1 lockstep result to the single-run signature:
// the global error when set, else the cell's own.
func oneCell(cells []Cell, err error) (*Report, error) {
	if len(cells) == 0 {
		return nil, err
	}
	if err == nil {
		err = cells[0].Err
	}
	return cells[0].Report, err
}
