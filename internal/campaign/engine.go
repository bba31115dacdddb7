package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/power"
)

// Runner is the engine's execution indirection: it is handed every job
// that survived the cache and dedup layers and decides where the job
// actually simulates — inline, or on a remote worker fleet (the campaign
// service's dispatcher). key is the job's content hash ("" when the job
// is unhashable) and params the campaign's power parameters, which are
// part of that hash; a remote runner ships both so the far side can
// validate the work against the same identity the cache uses.
//
// The returned Result is cached and delivered exactly as an inline
// execution's would be. A Runner must honour ctx: when it ends the job
// is abandoned, and the runner returns ctx's error.
type Runner interface {
	RunJob(ctx context.Context, job *Job, key string, params power.Params) (Result, error)
}

// Engine executes campaigns. The zero value runs with GOMAXPROCS workers
// and no cache; set CacheDir to persist results across runs.
type Engine struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// CacheDir enables the on-disk result cache when non-empty.
	CacheDir string
	// OnResult, when non-nil, observes every completed result as it
	// lands (from worker goroutines, serialised by the engine). CLI
	// drivers use it for progress reporting.
	OnResult func(Result)
	// OnJobStart, when non-nil, observes every job as its simulation
	// actually begins — after a cache miss and dedup. Serialised like
	// OnResult.
	OnJobStart func(Job)
	// OnJobError, when non-nil, observes per-job failures (serialised).
	// Cancellation-induced skips are not failures and are not reported.
	OnJobError func(Job, error)
	// Flight, when non-nil, deduplicates concurrent executions of
	// identical jobs (same JobKey) across every engine sharing it.
	Flight *Flight
	// Runner, when non-nil, executes cache-missed jobs instead of the
	// inline simulate path. The engine still owns caching and dedup: the
	// runner only sees jobs that genuinely need executing, and its
	// results enter the shared cache like any other. Bounding execution
	// is then the runner's job (the campaign service queues every job
	// for its fleet and its own bounded slots).
	Runner Runner
	// Ckpt, when non-nil, is the checkpoint artifact store inline
	// executions run against (ExecuteUnit): sampled cells of a sweep
	// share one warming pass per CheckpointKey instead of each
	// recomputing it. A Runner is expected to carry its own store.
	Ckpt *ckpt.Store
	// Lockstep groups cache-missed sampled jobs that share a
	// CheckpointKey (one functional identity: benchmark, seed, budget,
	// warming class, geometry, regime) into lockstep batches: one
	// emulator + warming stream fans each detailed window out to every
	// cell's core (sample.RunLockstepStored), so the sweep axis becomes
	// a batch dimension of the hot loop. Per-cell JobKeys, caching,
	// delivery and exports are unchanged, and per-cell results are
	// bit-identical to the per-job path. Only inline local execution
	// batches: an engine with a Runner (the campaign service) or a
	// shared Flight schedules per job, where fleet-wide dedup owns the
	// sharing. Batches never span Run calls, so two tenants' campaigns
	// can never share one.
	Lockstep bool
}

// lockstepUnits plans the campaign's work units: each unit is a list of
// job indices executed together. Jobs sharing a non-empty CheckpointKey
// form one lockstep batch (in deterministic first-seen order); exact
// and unkeyable jobs stay solo.
func lockstepUnits(jobs []Job) [][]int {
	groups := map[string]int{}
	var units [][]int
	for i := range jobs {
		var key string
		if jobs[i].Sampling != nil {
			key, _ = CheckpointKey(&jobs[i])
		}
		if key == "" {
			units = append(units, []int{i})
			continue
		}
		if u, ok := groups[key]; ok {
			units[u] = append(units[u], i)
		} else {
			groups[key] = len(units)
			units = append(units, []int{i})
		}
	}
	return units
}

// Run expands the spec and executes every job. The returned ResultSet
// lists completed results in the spec's deterministic job order
// regardless of completion order or worker count.
//
// On the first job error the engine cancels the campaign: in-flight jobs
// finish, queued jobs are skipped and counted in ResultSet.Skipped, and
// the error return joins every job error observed (errors.Join). The
// partial ResultSet is returned alongside the error so a driver can
// still export what completed. Cancelling ctx stops the campaign the
// same way and surfaces ctx's error.
func (e *Engine) Run(ctx context.Context, spec Spec) (*ResultSet, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	cache, err := OpenCache(e.CacheDir)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Spec: spec}
	if len(jobs) == 0 {
		return rs, nil
	}

	// Work units: one job each, except that with lockstep active jobs
	// sharing a functional identity form one multi-cell unit. Engines
	// with a Runner or a shared Flight schedule per job — there the
	// service dispatcher and fleet-wide dedup own the sharing.
	var units [][]int
	if e.Lockstep && e.Runner == nil && e.Flight == nil {
		units = lockstepUnits(jobs)
	} else {
		units = make([][]int, len(jobs))
		for i := range jobs {
			units[i] = []int{i}
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]Result, len(jobs))
	filled := make([]bool, len(jobs))
	var (
		mu        sync.Mutex // guards errs, counters, callbacks
		errs      []error
		executed  int
		cacheHits int
		dedupHits int
	)

	// deliver records a finished job and fires OnResult; how selects the
	// counter the job lands in. It stamps the job's sweep point on every
	// result: the key omits the point (it is encoded in the derived
	// config), so a result from the cache, from another caller's flight,
	// or from a worker may carry another job's coordinates.
	const (
		howExecuted = iota
		howCached
		howDedup
	)
	deliver := func(idx int, res Result, how int) {
		res.Point = jobs[idx].Point
		mu.Lock()
		results[idx], filled[idx] = res, true
		switch how {
		case howCached:
			cacheHits++
		case howDedup:
			dedupHits++
		default:
			executed++
		}
		if e.OnResult != nil {
			e.OnResult(res)
		}
		mu.Unlock()
	}

	// fail records a job error and cancels the campaign.
	fail := func(idx int, err error) {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return // cancelled before/while running: skipped, not failed
		}
		mu.Lock()
		errs = append(errs, err)
		if e.OnJobError != nil {
			e.OnJobError(jobs[idx], err)
		}
		mu.Unlock()
		cancel()
	}

	// keys holds each job's content hash ("" when unhashable or when
	// neither cache nor dedup needs it). Each index belongs to exactly
	// one unit, so workers never write the same slot.
	keys := make([]string, len(jobs))
	fromCache := func(idx int) (Result, bool) {
		if cache == nil || keys[idx] == "" {
			return Result{}, false
		}
		return cache.Get(keys[idx])
	}
	// execute is the one path that simulates: it runs the unit's
	// cache-missed cells on the Runner or inline and persists each
	// success.
	execute := func(run []int) ([]Result, []error) {
		if e.OnJobStart != nil {
			mu.Lock()
			for _, idx := range run {
				e.OnJobStart(jobs[idx])
			}
			mu.Unlock()
		}
		var (
			res   []Result
			cerrs []error
		)
		if e.Runner != nil {
			res, cerrs = make([]Result, len(run)), make([]error, len(run))
			for i, idx := range run {
				res[i], cerrs[i] = e.Runner.RunJob(ctx, &jobs[idx], keys[idx], spec.Params)
			}
		} else {
			ujobs := make([]*Job, len(run))
			for i, idx := range run {
				ujobs[i] = &jobs[idx]
			}
			res, cerrs = ExecuteUnit(ctx, ujobs, e.Ckpt)
		}
		for i, idx := range run {
			if cerrs[i] == nil && cache != nil && keys[idx] != "" {
				// A failed write only costs the next run a re-simulation.
				_ = cache.Put(keys[idx], res[i])
			}
		}
		return res, cerrs
	}

	// runUnit executes one work unit: cached cells leave it first, the
	// rest execute together, and each cell is then delivered or failed
	// on its own — a failing cell sinks only itself.
	runUnit := func(unit []int) {
		run := unit[:0:0]
		for _, idx := range unit {
			if cache != nil || e.Flight != nil {
				// Unhashable jobs still run; they just can't be cached
				// or deduplicated.
				keys[idx], _ = JobKey(&jobs[idx], spec.Params)
			}
			if res, ok := fromCache(idx); ok {
				deliver(idx, res, howCached)
			} else {
				run = append(run, idx)
			}
		}
		if len(run) == 0 {
			return
		}
		var (
			res    []Result
			cerrs  []error
			shared bool
		)
		if idx := run[0]; len(run) == 1 && e.Flight != nil && keys[idx] != "" {
			// The flight turn re-probes the cache: a concurrent identical
			// job may have finished and written its entry since our miss.
			r, sh, err := e.Flight.Do(ctx, keys[idx], func() (Result, error) {
				if r, ok := fromCache(idx); ok {
					return r, nil
				}
				rs, es := execute(run)
				return rs[0], es[0]
			})
			res, cerrs, shared = []Result{r}, []error{err}, sh
		} else {
			res, cerrs = execute(run)
		}
		for i, idx := range run {
			if cerrs[i] != nil {
				fail(idx, cerrs[i])
				continue
			}
			how := howExecuted
			switch {
			case shared:
				res[i].Dedup = true
				how = howDedup
			case res[i].Cached:
				how = howCached
			}
			deliver(idx, res[i], how)
		}
	}

	// Workers take units in campaign order from one shared cursor.
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				runUnit(units[i])
			}
		}()
	}
	wg.Wait()

	rs.Executed, rs.CacheHits, rs.DedupHits = executed, cacheHits, dedupHits
	rs.Results = make([]Result, 0, len(jobs))
	for i := range results {
		if filled[i] {
			rs.Results = append(rs.Results, results[i])
		} else {
			rs.Skipped++
		}
	}
	rs.reindex()
	if len(errs) > 0 {
		if rs.Skipped > 0 {
			errs = append(errs, fmt.Errorf("campaign: %d job(s) skipped after cancellation", rs.Skipped))
		}
		return rs, errors.Join(errs...)
	}
	if err := ctx.Err(); err != nil {
		return rs, err
	}
	return rs, nil
}
