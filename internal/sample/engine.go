package sample

import (
	"cmp"
	"context"
	"io"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// countedStream is the functional stream of a sampled run: the emulator
// plus the warmer, counting committed real (non-hint) instructions and
// tracking the most recent issue-queue hint so a detailed window can
// start with the enclosing region's hint applied (Core.PresetHint)
// instead of an uncontrolled queue.
type countedStream struct {
	e        *emu.Emulator
	warm     *warmer
	real     int64
	lastHint int
}

// advance executes and warms instructions until stop real instructions
// have committed or the program halts. Every instruction is filled into
// the same record, so the fast-forward loop copies nothing per
// instruction.
func (s *countedStream) advance(stop int64) {
	var d trace.DynInst
	real, lastHint := s.real, s.lastHint
	for real < stop && s.e.NextInto(&d) {
		if d.Hint > 0 {
			lastHint = d.Hint
		}
		if d.Op != isa.HintNop {
			real++
		}
		s.warm.observe(&d)
	}
	s.real, s.lastHint = real, lastHint
}

// warmer drives the update-only warming paths of the cache hierarchy and
// branch predictor for one dynamic instruction, mirroring what the
// detailed core's front end and memory pipeline would touch: one I-cache
// access per line transition, predictor training for every control
// transfer, and D-cache state transitions for every load and store. It
// runs once per fast-forwarded instruction, so it is written for the hot
// path: the instruction class is resolved once and the I-line check uses
// a shift when the line size is a power of two.
type warmer struct {
	mem       *cache.Hierarchy
	bp        *bpred.Predictor
	lineBytes int
	lineShift int // log2(lineBytes) when a power of two, else -1
	lastLine  int
}

func newWarmer(mem *cache.Hierarchy, bp *bpred.Predictor) *warmer {
	w := &warmer{mem: mem, bp: bp, lineBytes: mem.IL1.Config().LineBytes, lastLine: -1, lineShift: -1}
	if lb := w.lineBytes; lb > 0 && lb&(lb-1) == 0 {
		w.lineShift = bits.TrailingZeros(uint(lb))
	}
	return w
}

func (w *warmer) observe(d *trace.DynInst) {
	var line int
	if w.lineShift >= 0 {
		line = d.PC >> uint(w.lineShift)
	} else {
		line = d.PC / w.lineBytes
	}
	if line != w.lastLine {
		w.lastLine = line
		w.mem.WarmFetch(d.PC)
	}
	switch d.Op.Class() {
	case isa.ClassLoad:
		w.mem.WarmLoad(d.Addr)
	case isa.ClassStore:
		w.mem.WarmStore(d.Addr)
	case isa.ClassBranch:
		w.bp.TrainCond(d.PC, d.Taken)
		if d.Taken {
			w.bp.WarmBTB(d.PC, d.NextPC)
		}
	case isa.ClassCtrl:
		switch {
		case d.Op == isa.Jmp:
			w.bp.WarmBTB(d.PC, d.NextPC)
		case d.Op.IsCall():
			w.bp.WarmCall(d.PC + isa.InstBytes)
			w.bp.WarmBTB(d.PC, d.NextPC)
		case d.Op == isa.Ret:
			w.bp.WarmReturn()
		}
	}
}

// Run executes a sampled simulation of the program under the processor
// configuration, over budget committed real instructions (the same
// budget semantics as sim.RunProgram: the emulator restarts the program
// as needed). It returns the extrapolated statistics with per-window
// detail; on cancellation the partial report accumulated so far is
// returned alongside ctx's error.
//
// The caller's cfg.MaxInsts and cfg.MaxCycles are ignored: windows set
// their own commit targets and per-window cycle safety nets. cfg.Probe,
// if any, observes detailed windows only, with cycle numbers restarting
// at each window.
func Run(ctx context.Context, cfg sim.Config, p *prog.Program, budget int64, sc Config) (*Report, error) {
	cells, err := RunLockstepStored(ctx, []sim.Config{cfg}, p, budget, sc, nil, "")
	if len(cells) == 0 {
		return nil, err
	}
	return cells[0].Report, cmp.Or(err, cells[0].Err)
}

// runWindow executes one detailed window on a fork of the stream: a
// fresh emulator restored from the window's architectural checkpoint
// and the window's warm hierarchy/predictor, which the run mutates (the
// caller lends storage it overwrites before the next window; stats are
// reset here). The detailed core is the cell's own, reset for the
// window, so its storage carries over from the cell's last window while
// its state does not. Both the generate and resume paths measure every
// window through this one function — that shared path is what makes
// their reports bit-identical.
func runWindow(ctx context.Context, core *sim.Core, cfg sim.Config, p *prog.Program, win *ckpt.Window, detail int64, sc Config) (sim.Stats, error) {
	fe, err := emu.NewFromCheckpoint(p, win.Ckpt)
	if err != nil {
		return sim.Stats{}, err
	}
	fe.Restart = true
	mem, bp := win.Mem, win.Bp
	// The window's measurement must hold this window's traffic only
	// (warming charges nothing by construction).
	mem.IL1.Stats, mem.DL1.Stats, mem.L2.Stats = cache.Stats{}, cache.Stats{}, cache.Stats{}
	bp.Stats = bpred.Stats{}

	measured := sc.WindowInsts
	if measured > detail {
		measured = detail
	}
	dwarm := detail - measured

	wcfg := cfg
	wcfg.MaxInsts = detail
	wcfg.MaxCycles = sim.SafetyCycles(detail)
	if err := core.Reset(wcfg, fe, mem, bp); err != nil {
		return sim.Stats{}, err
	}
	core.PresetHint(win.LastHint)
	var fillSnap sim.Stats
	if dwarm > 0 {
		if fillSnap, err = core.RunSegment(ctx, dwarm); err != nil {
			return sim.Stats{}, err
		}
	}
	full, err := core.RunSegment(ctx, detail)
	return subStats(&full, &fillSnap), err
}

// windowDetail returns a window's detailed length (unmeasured pipeline
// fill plus measured unit), shrunk at the end of the budget. Both paths
// derive it from the window's stream position with this one formula.
func windowDetail(sc Config, startReal, budget int64) int64 {
	detail := sc.DetailWarmupInsts + sc.WindowInsts
	if remaining := budget - startReal; detail > remaining {
		detail = remaining
	}
	return detail
}

// generateK runs the full functional stream — fast-forward, warming,
// and a fork-per-window detailed measurement fanned out to every cell —
// writing each window's resume state through to the store when one is
// attached. The stream is shared: each of the K configurations only
// pays for its own detailed windows.
func generateK(ctx context.Context, cfgs []sim.Config, p *prog.Program, budget int64, sc Config, store *ckpt.Store, key string) ([]Cell, error) {
	e, err := emu.New(p)
	if err != nil {
		return nil, err
	}
	e.Restart = true
	mem, err := cache.NewHierarchy(cfgs[0].Caches)
	if err != nil {
		return nil, err
	}
	bp := bpred.New(cfgs[0].Bpred)
	cs := &countedStream{e: e, warm: newWarmer(mem, bp)}
	b := newBatch(cfgs)
	// pub is the window generateK publishes: the artifact encodes it and
	// the batch's last live cell runs on it. Its hierarchy and predictor
	// are one copy of the stream's warm state, overwritten each window.
	var pub ckpt.Window

	var w *ckpt.Writer
	if store != nil && key != "" {
		// A failed Create just means no artifact gets published; the run
		// itself must not care.
		w, _ = store.Create(key, budget)
	}
	defer func() { w.Abort() }() // no-op once committed

	ffPerPeriod := sc.PeriodInsts - sc.WarmupInsts - sc.DetailWarmupInsts - sc.WindowInsts
	// Deterministic per-run jitter source: windows must not alias with
	// loop periodicity in the workload, and re-runs must land identical
	// results for the campaign cache. Seeded from the regime so equal
	// jobs sample equal positions.
	jitterState := uint64(budget)*2654435761 + uint64(sc.PeriodInsts) + 1
	jitteredGap := func() int64 {
		if ffPerPeriod == 0 {
			return ffPerPeriod
		}
		jitterState ^= jitterState << 13
		jitterState ^= jitterState >> 7
		jitterState ^= jitterState << 17
		span := ffPerPeriod * JitterPct / 100
		return ffPerPeriod - span + int64(jitterState%uint64(2*span+1))
	}

	for cs.real < budget {
		if err := ctx.Err(); err != nil {
			b.stop(err, cs.real)
			return b.cells(), err
		}

		// Functional warming: architectural execution plus cache and
		// predictor state transitions, no statistics.
		warmStart := cs.real
		cs.advance(min(warmStart+sc.WarmupInsts, budget))
		warmed := cs.real - warmStart
		for i, rep := range b.reports {
			if b.errs[i] == nil {
				rep.WarmedReal += warmed
			}
		}
		if cs.real >= budget || e.Halted() {
			break
		}

		// Detailed window on a fork of the stream state at this position.
		// The window's resume state is serialized before any cell runs,
		// so the published artifact holds exactly what every measurement
		// saw.
		detail := windowDetail(sc, cs.real, budget)
		forkInto(&pub, &ckpt.Window{
			StartReal: cs.real,
			LastHint:  cs.lastHint,
			Ckpt:      e.Checkpoint(),
			Mem:       mem,
			Bp:        bp,
		})
		if w != nil {
			if err := w.Append(&pub); err != nil {
				w.Abort()
				w = nil
			}
		}
		b.window(ctx, p, &pub, detail, sc, cs.real)
		if b.live == 0 {
			return b.cells(), nil
		}

		// The main stream re-executes the window's region functionally —
		// with warming, so the state every later window starts from is a
		// pure function of the stream position and never of this cell's
		// detailed configuration.
		cs.advance(cs.real + detail)

		// Fast-forward: architectural state plus cache and predictor
		// warming, as SMARTS does. Without warming, long-lived cache
		// state ages too slowly and memory-bound programs (mcf-like)
		// overstate their hit rates.
		ffStart := cs.real
		cs.advance(min(ffStart+jitteredGap(), budget))
		ffwd := cs.real - ffStart
		for i, rep := range b.reports {
			if b.errs[i] == nil {
				rep.FastForwardReal += ffwd
			}
		}
		if e.Halted() {
			break
		}
	}
	var done *Report
	for i, rep := range b.reports {
		if b.errs[i] == nil {
			rep.finalize(cs.real)
			done = rep
		}
	}
	if w != nil && done != nil {
		// Publish only a complete artifact; a commit failure is a cache
		// miss for the next job, not an error for this one. The stream
		// accounting is cell-independent, so any finished cell's report
		// supplies the trailer.
		_ = w.Commit(ckpt.Trailer{
			TotalReal:       done.TotalReal,
			WarmedReal:      done.WarmedReal,
			FastForwardReal: done.FastForwardReal,
		})
		w = nil
	}
	return b.cells(), nil
}

// resumeK replays a run's detailed windows from a stored artifact for
// every cell, skipping the functional stream entirely — a warm-resumed
// lockstep batch touches the artifact once. ok is false when the
// artifact is missing or unusable (the store evicts an unusable one, so
// the caller regenerates it; windows are deterministic, so the rerun is
// always safe); otherwise the returned cells and error are final.
func resumeK(ctx context.Context, cfgs []sim.Config, p *prog.Program, budget int64, sc Config, store *ckpt.Store, key string) (cells []Cell, err error, ok bool) {
	r, oerr := store.OpenArtifact(key, budget, p, cfgs[0].Caches, cfgs[0].Bpred)
	if oerr != nil {
		return nil, nil, false
	}
	defer r.Close()
	b := newBatch(cfgs)
	for {
		if cerr := ctx.Err(); cerr != nil {
			b.stop(cerr, budget)
			return b.cells(), cerr, true
		}
		win, rerr := r.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, nil, false
		}
		b.window(ctx, p, win, windowDetail(sc, win.StartReal, budget), sc, budget)
		if b.live == 0 {
			return b.cells(), nil, true
		}
	}
	tr, _ := r.Trailer()
	for i, rep := range b.reports {
		if b.errs[i] == nil {
			rep.WarmedReal = tr.WarmedReal
			rep.FastForwardReal = tr.FastForwardReal
			rep.finalize(tr.TotalReal)
		}
	}
	return b.cells(), nil, true
}
