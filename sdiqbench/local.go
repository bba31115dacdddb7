package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/power"
	"repro/internal/sample"
	"repro/internal/sim"
)

// localSetups is how many times a local workload sets up per run; the
// median is setup_s.
const localSetups = 5

// localWorkload is a campaign run on an in-process campaign.Engine with
// one worker per CPU, repeated on fresh stores until the measuring time
// is up.
type localWorkload struct {
	name string
	spec func(z *sizing, rng *rand.Rand) campaign.Spec
	// sampled workloads run lockstep over a fresh checkpoint store.
	sampled bool
}

var (
	figureSuite  = localWorkload{name: "figure_suite", spec: (*sizing).figureSpec}
	sweepSampled = localWorkload{name: "sweep_sampled", spec: (*sizing).sweepSpec, sampled: true}
)

// localRun is one measured engine run.
type localRun struct {
	spec       campaign.Spec
	jobs       []campaign.Job
	rs         *campaign.ResultSet
	err        error
	start, end time.Time
	ckpt       ckpt.Metrics // the run's fresh store (zero without one)
	// Traced runs only: hook times by job ID, and the result cache's
	// Get/Put times (ms) on the run's own results.
	started, delivered map[string]time.Time
	cacheGet, cachePut []float64
}

func (r *localRun) wall() float64 { return r.end.Sub(r.start).Seconds() }

// runOnce runs one campaign on fresh stores under dir.
func (w localWorkload) runOnce(ctx context.Context, dir string, spec campaign.Spec, slots int, traced bool) (*localRun, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	eng := &campaign.Engine{Workers: slots, CacheDir: filepath.Join(dir, "cache")}
	var store *ckpt.Store
	if w.sampled {
		if store, err = ckpt.Open(filepath.Join(dir, "ckpt")); err != nil {
			return nil, err
		}
		eng.Ckpt, eng.Lockstep = store, true
	}
	run := &localRun{spec: spec, jobs: jobs}
	if traced {
		// The engine serialises its hooks, so the maps need no lock.
		run.started, run.delivered = map[string]time.Time{}, map[string]time.Time{}
		eng.OnJobStart = func(j campaign.Job) { run.started[j.ID()] = time.Now() }
		eng.OnResult = func(r campaign.Result) { run.delivered[cellID(&r)] = time.Now() }
	}
	run.start = time.Now()
	run.rs, run.err = eng.Run(ctx, spec)
	run.end = time.Now()
	run.ckpt = store.Metrics()
	if traced && run.rs != nil {
		byID := map[string]*campaign.Job{}
		for i := range jobs {
			byID[jobs[i].ID()] = &jobs[i]
		}
		var cells []*campaign.Job
		for i := range run.rs.Results {
			cells = append(cells, byID[cellID(&run.rs.Results[i])])
		}
		if run.cacheGet, run.cachePut, err = timeCache(eng.CacheDir, spec.Params, cells); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// timeCache times campaign.Cache Get and Put, in ms, of each job's
// entry in the result cache at dir; Put rewrites the entry it just read.
func timeCache(dir string, params power.Params, jobs []*campaign.Job) (get, put []float64, err error) {
	c, err := campaign.OpenCache(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, job := range jobs {
		key, err := campaign.JobKey(job, params)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		res, ok := c.Get(key)
		t1 := time.Now()
		if !ok {
			return nil, nil, fmt.Errorf("result cache has no entry for %s", job.ID())
		}
		if err := c.Put(key, res); err != nil {
			return nil, nil, err
		}
		get = append(get, nsMS(t1.Sub(t0).Nanoseconds()))
		put = append(put, nsMS(time.Since(t1).Nanoseconds()))
	}
	return get, put, nil
}

// setUp prepares one campaign's environment — fresh cache (and store)
// directories — and warms the process with a toy campaign: the first
// technique on every benchmark, at the first point of each axis and a
// tenth of the budget, so lazy initialisation is paid before timing
// starts. Every benchmark, so that set-up lasts long enough (a tenth of
// a second or more) for its median to hold still between sets of runs.
func (w localWorkload) setUp(ctx context.Context, z *sizing, dir string, slots int) error {
	defer os.RemoveAll(dir)
	spec := w.spec(z, nil)
	spec.Techniques = spec.Techniques[:1]
	for i := range spec.Axes {
		spec.Axes[i].Values = spec.Axes[i].Values[:1]
	}
	spec.Budget /= 10
	run, err := w.runOnce(ctx, dir, spec, slots, false)
	if err != nil {
		return err
	}
	return run.err
}

// pass runs campaigns back to back, each on fresh stores, until the
// measuring time is up — or, when n > 0, exactly n campaigns, so a
// traced pass repeats the untraced pass's work and the walls compare.
// Each campaign's job order comes from the seeded stream. An untraced
// pass also probes the host before every campaign and after the last.
func (w localWorkload) pass(ctx context.Context, root string, opt options, traced bool, n int) ([]*localRun, []float64, error) {
	rng := rand.New(rand.NewSource(opt.seed))
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	var runs []*localRun
	var probes []float64
	for i := 0; ; i++ {
		// Collect the previous campaign's garbage before the clock starts,
		// as a fresh sdiq process would have none.
		runtime.GC()
		if !traced {
			probes = append(probes, probeHost(opt.slots))
		}
		if n > 0 && i == n || n == 0 && i > 0 && !time.Now().Before(deadline) {
			return runs, probes, nil
		}
		dir := filepath.Join(root, fmt.Sprintf("campaign-%t-%d", traced, i))
		run, err := w.runOnce(ctx, dir, w.spec(opt.size, rng), opt.slots, traced)
		os.RemoveAll(dir)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, run)
	}
}

// run measures the workload: set-up several times, an untraced pass for
// the end-to-end metrics, and on a traced run a traced pass of the same
// campaigns for the per-layer metrics.
func (w localWorkload) run(ctx context.Context, opt options) (*outcome, error) {
	z := opt.size
	budget := w.spec(z, nil).Budget
	var ref *reference
	if z.refs {
		var err error
		if ref, err = loadReference(w.name, budget); err != nil {
			return nil, err
		}
	}
	root, err := os.MkdirTemp(opt.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	out := newOutcome(ref)

	setups := make([]float64, localSetups)
	for i := range setups {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if err := w.setUp(ctx, z, filepath.Join(root, fmt.Sprintf("setup-%d", i)), opt.slots); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	plain, probes, err := w.pass(ctx, root, opt, false, 0)
	if err != nil {
		return nil, err
	}
	w.endToEnd(out, plain, budget, median(setups), hostScale(out, probes))
	put(out.extra, "peak_rss_mb", peakRSSMB(), "MB")
	if w.sampled && ref != nil {
		put(out.extra, "sampled_ipc_err_pct", ipcErrPct(plain[0].rs, ref), "%")
	} else if !w.sampled {
		out.notes["sampled_ipc_err_pct"] = "exact mode: no hardware reference in the repository, so unvalidated and no error figure"
	}
	if !opt.traced {
		return out, nil
	}
	traced, _, err := w.pass(ctx, root, opt, true, len(plain))
	if err != nil {
		return nil, err
	}
	w.check(out, traced)
	if err := w.perLayer(ctx, out, filepath.Join(root, "retime"), plain, traced, opt); err != nil {
		return nil, err
	}
	return out, nil
}

// check verifies every delivered cell of the runs and counts operations
// and failures.
func (w localWorkload) check(out *outcome, runs []*localRun) {
	for _, r := range runs {
		out.attempted += int64(len(r.jobs)) + 1
		if r.rs == nil {
			out.failed += int64(len(r.jobs)) + 1
			continue
		}
		if r.err != nil {
			out.failed += 1 + int64(len(r.jobs)-len(r.rs.Results))
		}
		for i := range r.rs.Results {
			if !out.check.check(&r.rs.Results[i]) {
				out.failed++
			}
		}
	}
}

// endToEnd derives the untraced pass's end-to-end metrics from its
// campaigns, the median set-up time and the host scale.
func (w localWorkload) endToEnd(out *outcome, runs []*localRun, budget int64, setup, scale float64) {
	w.check(out, runs)
	var walls, rates []float64
	for _, r := range runs {
		walls = append(walls, r.wall())
		if r.rs != nil {
			rates = append(rates, float64(int64(len(r.rs.Results))*budget)/r.wall()/1e6)
		}
	}
	out.notes["campaign_walls_s"] = fmt.Sprintf("%.3f", walls)
	// The median campaign's rate: a campaign slowed by a noisy
	// neighbour moves it less than it would move the pass's mean.
	atReference(out, scale, setup, median(rates), walls)
}

// ipcErrPct is the mean |sampled − exact| / exact IPC, in percent, over
// a campaign's cells, against the stored exact-mode IPC.
func ipcErrPct(rs *campaign.ResultSet, ref *reference) float64 {
	if rs == nil || len(rs.Results) == 0 {
		return 0
	}
	var sum float64
	for i := range rs.Results {
		r := &rs.Results[i]
		exact := ref.ExactIPC[cellID(r)]
		sum += 100 * math.Abs(r.Stats.IPC()-exact) / exact
	}
	return sum / float64(len(rs.Results))
}

// unit is one engine work unit of a traced run: a solo job, or a
// lockstep batch of cells sharing a checkpoint key.
type unit struct {
	key        string
	cells      []*campaign.Result
	start, end time.Time // first OnJobStart, last OnResult
}

// units groups a traced run's results the way the engine planned them.
func (w localWorkload) units(r *localRun) ([]*unit, error) {
	jobs := map[string]*campaign.Job{}
	for i := range r.jobs {
		jobs[r.jobs[i].ID()] = &r.jobs[i]
	}
	byKey := map[string]*unit{}
	var out []*unit
	for i := range r.rs.Results {
		res := &r.rs.Results[i]
		id := cellID(res)
		key := id
		if w.sampled {
			k, err := campaign.CheckpointKey(jobs[id])
			if err != nil {
				return nil, err
			}
			key = k
		}
		u := byKey[key]
		if u == nil {
			u = &unit{key: key, start: r.started[id], end: r.delivered[id]}
			byKey[key] = u
			out = append(out, u)
		}
		u.cells = append(u.cells, res)
		if t := r.started[id]; t.Before(u.start) {
			u.start = t
		}
		if t := r.delivered[id]; t.After(u.end) {
			u.end = t
		}
	}
	return out, nil
}

// perLayer derives the traced pass's per-layer metrics and trace.
func (w localWorkload) perLayer(ctx context.Context, out *outcome, dir string, plain, traced []*localRun, opt options) error {
	out.zeroLayers()
	var solo map[string]soloTiming
	if w.sampled {
		var err error
		if solo, err = retime(ctx, dir, traced[0].jobs, opt.slots); err != nil {
			return err
		}
		out.notes["sample.functional_ms"] = "derived: re-timed solo (K=1) run per warming identity, T_K = F + K·D"
		out.notes["emu.stream_ms"] = "derived: emulator-only replay of each identity's stream"
	}
	tr := &tracer{epoch: traced[0].start}
	tops := map[int]bool{}
	var (
		jobMS, waitMS, getMS, putMS                 []float64
		wall, idle, busy, exactNS                   int64
		executed, cached, dedup, failed, exactCells int
		gen, compile, hints                         float64
		batches, windows, sampledInsts, totalInsts  float64
		batchNS, funcNS, detailNS, emuNS            int64
		ck                                          ckpt.Metrics
	)
	for ri, r := range traced {
		trace := fmt.Sprintf("campaign-%d", ri)
		end := tr.ns(r.end)
		root := tr.add(0, trace, "campaign.run", tr.ns(r.start), end, false)
		wall += end - tr.ns(r.start)
		executed, cached, dedup = executed+r.rs.Executed, cached+r.rs.CacheHits, dedup+r.rs.DedupHits
		failed += len(r.jobs) - len(r.rs.Results)
		getMS, putMS = append(getMS, r.cacheGet...), append(putMS, r.cachePut...)
		ck.Generated += r.ckpt.Generated
		ck.Hits += r.ckpt.Hits
		ck.Misses += r.ckpt.Misses
		ck.BytesWritten += r.ckpt.BytesWritten
		ck.BytesRead += r.ckpt.BytesRead
		units, err := w.units(r)
		if err != nil {
			return err
		}
		var unitSpans []Span
		for _, u := range units {
			name := "campaign.job"
			if len(u.cells) > 1 {
				name = "campaign.batch"
				batches++
			}
			uid := tr.add(root, trace, name, tr.ns(u.start), tr.ns(u.end), false)
			tops[uid] = true
			unitSpans = append(unitSpans, tr.spans[uid-1])
			jobMS = append(jobMS, nsMS(tr.spans[uid-1].End-tr.spans[uid-1].Start))
			busy += tr.spans[uid-1].End - tr.spans[uid-1].Start

			// One Prepare and one pair of stamps serve the whole unit.
			c0 := u.cells[0]
			s, f := tr.ns(c0.StartedAt), tr.ns(c0.FinishedAt)
			g := s + msNS(c0.GenMS)
			c := g + msNS(c0.CompileMS)
			gen, compile, hints = gen+c0.GenMS, compile+c0.CompileMS, hints+float64(c0.Hints)
			tr.add(uid, trace, "workload.gen", s, g, false)
			if c0.CompileMS > 0 {
				tr.add(uid, trace, "core.compile", g, c, false)
			}
			for _, cell := range u.cells {
				waitMS = append(waitMS, r.started[cellID(cell)].Sub(r.start).Seconds()*1e3)
				if m := cell.Sampled; m != nil {
					windows += float64(m.Windows)
					sampledInsts += float64(m.SampledInsts)
					totalInsts += float64(m.TotalInsts)
				}
			}
			if !w.sampled {
				tr.add(uid, trace, "sim.exact", c, f, false)
				exactNS += f - c
				exactCells++
				continue
			}
			// T_K = F + K·D, with the re-timed solo run T_1 = F + D.
			k := int64(len(u.cells))
			tk := f - c
			var d int64
			if k > 1 {
				d = max(0, (tk-solo[u.key].solo)/(k-1))
			}
			fn := max(0, tk-k*d)
			batchNS += tk
			funcNS += fn
			detailNS += tk - fn
			em := min(solo[u.key].emu, fn)
			emuNS += em
			fid := tr.add(uid, trace, "sample.functional", c, c+fn, true)
			tr.add(fid, trace, "emu.stream", c, c+em, true)
			tr.add(uid, trace, "sim.detail", c+fn, f, true)
		}
		idle += tailIdle(unitSpans, end, opt.slots)
	}
	n := float64(len(traced))
	slot := wall * int64(opt.slots)

	out.layer("campaign.executed", float64(executed)/n)
	out.layer("campaign.cache_hits", float64(cached)/n)
	out.layer("campaign.dedup_hits", float64(dedup)/n)
	out.layer("campaign.failed", float64(failed)/n)
	out.layer("campaign.job_ms.p50", median(jobMS))
	tailMetric(out.perLayer, out.notes, "campaign.job_ms.tail", jobMS, "ms")
	out.layer("campaign.wait_ms.p50", median(waitMS))
	out.layer("campaign.busy_frac", float64(busy)/float64(slot))
	out.layer("campaign.cache_get_ms.p50", median(getMS))
	out.layer("campaign.cache_put_ms.p50", median(putMS))
	out.layer("workload.gen_ms", gen/n)
	out.layer("core.compile_ms", compile/n)
	out.layer("core.hints", hints/n)
	out.layer("sim.exact_ms", nsMS(exactNS)/n)
	if exactNS > 0 {
		out.layer("sim.minst_per_s", float64(int64(exactCells)*traced[0].spec.Budget)/(float64(exactNS)/1e9)/1e6)
	}
	out.layer("sample.batches", batches/n)
	out.layer("sample.windows", windows/n)
	if totalInsts > 0 {
		out.layer("sample.detailed_frac", sampledInsts/totalInsts)
	}
	out.layer("sample.batch_ms", nsMS(batchNS)/n)
	out.layer("sample.functional_ms", nsMS(funcNS)/n)
	out.layer("sample.detail_ms", nsMS(detailNS)/n)
	if v, ok := out.extra["sampled_ipc_err_pct"]; ok {
		out.layer("sample.ipc_err_pct", v.Value)
	}
	out.layer("emu.stream_ms", nsMS(emuNS)/n)
	out.layer("ckpt.generated", float64(ck.Generated)/n)
	out.layer("ckpt.hits", float64(ck.Hits)/n)
	out.layer("ckpt.misses", float64(ck.Misses)/n)
	if ck.Hits+ck.Misses > 0 {
		out.layer("ckpt.hit_ratio", float64(ck.Hits)/float64(ck.Hits+ck.Misses))
	}
	out.layer("ckpt.bytes_written", float64(ck.BytesWritten)/n)
	out.layer("ckpt.bytes_read", float64(ck.BytesRead)/n)

	var plainWall, tracedWall float64
	for i := range traced {
		plainWall += plain[i].wall()
		tracedWall += traced[i].wall()
	}
	out.layer("trace.overhead_s", tracedWall-plainWall)
	out.layer("trace.spans", float64(len(tr.spans)))
	tr.account(tops, slot, idle).report(out)
	out.spans = tr.spans
	return nil
}

// soloTiming is one warming identity re-timed alone: a K=1 run through
// sample.RunLockstepStored on a throwaway store (T_1 = F + D), and a
// bare emulator replay of the same stream.
type soloTiming struct{ solo, emu int64 } // ns

// retime re-times every warming identity among jobs, spread over slots
// goroutines as the engine spreads batches. Only the traced run does
// this, after its timed pass.
func retime(ctx context.Context, dir string, jobs []campaign.Job, slots int) (map[string]soloTiming, error) {
	first := map[string]*campaign.Job{}
	var keys []string
	for i := range jobs {
		k, err := campaign.CheckpointKey(&jobs[i])
		if err != nil {
			return nil, err
		}
		if _, ok := first[k]; !ok {
			first[k] = &jobs[i]
			keys = append(keys, k)
		}
	}
	out := make(map[string]soloTiming, len(keys))
	errs := make([]error, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, slots)
	for i, k := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t, err := retimeOne(ctx, filepath.Join(dir, k[:16]), first[k], k)
			mu.Lock()
			out[k], errs[i] = t, err
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func retimeOne(ctx context.Context, dir string, job *campaign.Job, key string) (soloTiming, error) {
	defer os.RemoveAll(dir)
	p, _, err := campaign.Prepare(job)
	if err != nil {
		return soloTiming{}, err
	}
	store, err := ckpt.Open(dir)
	if err != nil {
		return soloTiming{}, err
	}
	sc := sample.Config{
		WindowInsts:       job.Sampling.Window,
		PeriodInsts:       job.Sampling.Period,
		WarmupInsts:       job.Sampling.Warmup,
		DetailWarmupInsts: job.Sampling.DetailWarmup,
	}
	t0 := time.Now()
	cells, err := sample.RunLockstepStored(ctx, []sim.Config{job.Config}, p, job.Budget, sc, store, key)
	solo := time.Since(t0)
	if err == nil && len(cells) == 1 {
		err = cells[0].Err
	}
	if err != nil {
		return soloTiming{}, fmt.Errorf("re-timing %s: %w", job.ID(), err)
	}
	e, err := emu.New(p)
	if err != nil {
		return soloTiming{}, err
	}
	e.Restart = true
	t1 := time.Now()
	for real := int64(0); real < job.Budget; {
		d, ok := e.Next()
		if !ok {
			break
		}
		if d.Op != isa.HintNop {
			real++
		}
	}
	return soloTiming{solo: solo.Nanoseconds(), emu: time.Since(t1).Nanoseconds()}, nil
}
