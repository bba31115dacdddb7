package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Result is the outcome of one job: the simulator statistics plus the
// preparation metadata the paper's compile-time tables report. Results
// are what the cache stores and the exporters emit.
type Result struct {
	Bench string    `json:"bench"`
	Tech  Technique `json:"tech"`
	Point Point     `json:"point,omitempty"`
	Stats sim.Stats `json:"stats"`
	// CompileMS is the instrumentation/analysis wall time.
	CompileMS float64 `json:"compile_ms"`
	// GenMS is the program generation+link wall time.
	GenMS float64 `json:"gen_ms"`
	// Hints is the number of static hints materialised.
	Hints int `json:"hints"`
	// Sampled carries the sampling detail when the job ran sampled:
	// Stats then holds the population-extrapolated totals and Sampled the
	// error bars. Nil for exact runs, and omitted from their JSON.
	Sampled *SampledMeta `json:"sampled,omitempty"`
	// StartedAt and FinishedAt bracket the job's execution (preparation
	// through simulation), stamped by ExecuteUnit. Like CompileMS/GenMS
	// they are wall-clock metadata, not part of the result's identity:
	// cache keys ignore them, and a cached result carries the stamps of
	// the run that populated it. The CSV export omits them, so exact-mode
	// CSV output is byte-stable across their introduction.
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// Cached marks a result served from the on-disk cache, Dedup one
	// shared from a concurrent identical execution (Engine.Flight).
	// Neither is serialised: a cache or dedup hit must export
	// byte-identically to the run that populated it.
	Cached bool `json:"-"`
	Dedup  bool `json:"-"`
}

// SampledMeta summarises a sampled run for results and exports. All
// fields are deterministic for a deterministic job, so cached and fresh
// sampled results export identically.
type SampledMeta struct {
	// Windows is the number of measured detailed windows.
	Windows int `json:"windows"`
	// SampledInsts of TotalInsts committed real instructions were
	// measured in detailed windows.
	SampledInsts int64 `json:"sampled_insts"`
	TotalInsts   int64 `json:"total_insts"`
	// Confidence is the level of the interval half-widths below.
	Confidence float64 `json:"confidence"`
	// IPC is the per-window IPC estimate: mean ± half.
	IPC sample.Metric `json:"ipc"`
	// DL1MissRate, L2MissRate and MispredictRate are the corresponding
	// per-window interval estimates.
	DL1MissRate    sample.Metric `json:"dl1_miss_rate"`
	L2MissRate     sample.Metric `json:"l2_miss_rate"`
	MispredictRate sample.Metric `json:"mispredict_rate"`
}

// instrumentOptions maps a technique to the compiler pass configuration;
// ok is false for techniques that run uninstrumented binaries.
func (t Technique) instrumentOptions() (opt core.Options, ok bool) {
	switch t {
	case TechNOOP:
		return core.Options{Mode: core.ModeNOOP}, true
	case TechExtension:
		return core.Options{Mode: core.ModeTag}, true
	case TechImproved:
		return core.Options{Mode: core.ModeTag, Improved: true}, true
	}
	return core.Options{}, false
}

// Prepare builds and, for the compiler techniques, instruments the job's
// benchmark program. It is exposed for drivers (cmd/sdiqsim) that attach
// probes and run the program themselves.
func Prepare(job *Job) (*prog.Program, Result, error) {
	res := Result{Bench: job.Bench, Tech: job.Tech, Point: job.Point}
	b, ok := workload.ByName(job.Bench)
	if !ok {
		return nil, res, fmt.Errorf("%s: unknown benchmark", job.ID())
	}
	t0 := time.Now()
	p := b.Build(job.Seed)
	res.GenMS = float64(time.Since(t0).Microseconds()) / 1000

	if opt, ok := job.Tech.instrumentOptions(); ok {
		t1 := time.Now()
		rep, err := core.Instrument(p, opt)
		if err != nil {
			return nil, res, fmt.Errorf("%s: %w", job.ID(), err)
		}
		res.CompileMS = float64(time.Since(t1).Microseconds()) / 1000
		res.Hints = rep.HintsInserted + rep.TagsApplied
	}
	return p, res, nil
}

// ExecuteStored runs one job to completion: prepare, simulate (exact or
// sampled, by job.Sampling), collect stats. It is ExecuteUnit for a unit
// of one, so a solo job and a lockstep batch share every line of the
// execution path. A nil store runs sampled jobs warm-from-scratch.
func ExecuteStored(ctx context.Context, job *Job, store *ckpt.Store) (Result, error) {
	results, errs := ExecuteUnit(ctx, []*Job{job}, store)
	return results[0], errs[0]
}

// sampledMetaOf converts a sampling report to the result view.
func sampledMetaOf(rep *sample.Report) *SampledMeta {
	return &SampledMeta{
		Windows:        len(rep.Windows),
		SampledInsts:   rep.SampledReal,
		TotalInsts:     rep.TotalReal,
		Confidence:     rep.Confidence,
		IPC:            rep.IPC,
		DL1MissRate:    rep.DL1MissRate,
		L2MissRate:     rep.L2MissRate,
		MispredictRate: rep.MispredictRate,
	}
}

// ExecuteUnit runs one work unit: a single job, or K sampled jobs that
// share one functional identity (equal CheckpointKey — same benchmark,
// seed, budget, warming class, cache/predictor geometry and regime)
// running as K cells over ONE emulator + functional-warming stream, so
// the shared work is paid once. The program is prepared once (within a
// warming class the instrumentation is identical), and with a store
// attached the whole unit touches the checkpoint artifact once: resumed
// when it exists, generated write-through when not. The simulator polls
// ctx mid-run, so cancellation takes effect mid-job.
//
// jobs must be non-empty. Per-cell results are bit-identical however
// the cells were grouped — the differential suites in internal/sample
// assert this. errs has one entry per job, nil on success: a failing
// cell sinks only itself. Each result's StartedAt/FinishedAt bracket
// the unit's execution (UTC, monotonic-free so they JSON-roundtrip
// exactly).
func ExecuteUnit(ctx context.Context, jobs []*Job, store *ckpt.Store) (results []Result, errs []error) {
	results = make([]Result, len(jobs))
	errs = make([]error, len(jobs))
	for i, job := range jobs {
		results[i] = Result{Bench: job.Bench, Tech: job.Tech, Point: job.Point}
	}
	failAll := func(err error) ([]Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	lead := jobs[0]
	if err := ctx.Err(); err != nil {
		return failAll(err)
	}
	if len(jobs) > 1 && lead.Sampling == nil {
		return failAll(fmt.Errorf("campaign: lockstep batch needs sampled jobs"))
	}
	started := time.Now().UTC()
	defer func() {
		finished := time.Now().UTC()
		for i := range results {
			results[i].StartedAt, results[i].FinishedAt = started, finished
		}
	}()
	p, prep, err := Prepare(lead)
	for i := range results {
		results[i].GenMS, results[i].CompileMS, results[i].Hints = prep.GenMS, prep.CompileMS, prep.Hints
	}
	if err != nil {
		return failAll(err)
	}

	cellErrs := make([]error, len(jobs))
	if lead.Sampling == nil {
		st, err := sim.RunProgramContext(ctx, lead.Config, p, lead.Budget)
		if cellErrs[0] = err; err == nil {
			results[0].Stats = st
		}
	} else {
		cfgs := make([]sim.Config, len(jobs))
		for i, job := range jobs {
			cfgs[i] = job.Config
		}
		var key string
		if store != nil {
			// An unkeyable job still runs; it just can't share warm state.
			key, _ = CheckpointKey(lead)
		}
		cells, err := sample.RunLockstepStored(ctx, cfgs, p, lead.Budget, lead.Sampling.engineConfig(), store, key)
		for i := range cellErrs {
			if cells == nil {
				cellErrs[i] = err // set-up failed before any cell ran
			} else if cellErrs[i] = cells[i].Err; cellErrs[i] == nil {
				results[i].Stats = cells[i].Report.Stats
				results[i].Sampled = sampledMetaOf(cells[i].Report)
			}
		}
	}
	for i, err := range cellErrs {
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", jobs[i].ID(), err)
		}
	}
	return results, errs
}
