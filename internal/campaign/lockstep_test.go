package campaign

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/sim"
)

// lockstepSweep is an IQ sweep whose sampled cells all share one
// functional identity: with Lockstep on they form a single batch.
func lockstepSweep(values []int) Spec {
	return Spec{
		Name:       "lockstep-batching",
		Benchmarks: []string{"gzip"},
		Techniques: []Technique{TechBaseline},
		Budget:     30_000,
		Seed:       42,
		Base:       sim.DefaultConfig(),
		Params:     power.DefaultParams(),
		Axes:       []Axis{{Name: "iq.entries", Values: values}},
		Sampling:   &Sampling{Window: 500, Period: 4000, Warmup: 1000, DetailWarmup: 250},
	}
}

// TestLockstepUnits pins the unit planner: sampled jobs sharing a
// CheckpointKey form one batch in first-seen order; exact jobs (no key)
// stay solo; distinct warming identities stay apart.
func TestLockstepUnits(t *testing.T) {
	spec := lockstepSweep([]int{16, 48, 80})
	spec.Benchmarks = []string{"gzip", "mcf"} // two warming identities
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Job order is points x benchmarks: gzip sits at even indices, mcf at
	// odd; the batches collect each benchmark's cells in first-seen order.
	units := lockstepUnits(jobs)
	want := [][]int{{0, 2, 4}, {1, 3, 5}}
	if !reflect.DeepEqual(units, want) {
		t.Errorf("sampled units = %v, want %v", units, want)
	}

	spec.Sampling = nil // exact: no checkpoint identity, no batching
	jobs, err = spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	units = lockstepUnits(jobs)
	if len(units) != len(jobs) {
		t.Fatalf("exact jobs formed %d units, want %d singletons", len(units), len(jobs))
	}
	for i, u := range units {
		if len(u) != 1 || u[0] != i {
			t.Errorf("exact unit %d = %v, want [%d]", i, u, i)
		}
	}
}

// TestLockstepTenantIsolation runs the same sweep as two tenants — two
// engines with private caches and checkpoint stores, concurrently, the
// way the service isolates per-tenant state. Each tenant must execute
// the full grid itself (no cross-tenant batch or cache sharing), and a
// re-run within one tenant must serve entirely from that tenant's cache.
func TestLockstepTenantIsolation(t *testing.T) {
	spec := lockstepSweep([]int{16, 32, 48, 64})
	ctx := context.Background()

	type tenant struct {
		engine *Engine
		rs     *ResultSet
		store  *ckpt.Store
		err    error
	}
	tenants := make([]*tenant, 2)
	for i := range tenants {
		store, err := ckpt.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = &tenant{
			engine: &Engine{Workers: 2, Lockstep: true, CacheDir: t.TempDir(), Ckpt: store},
			store:  store,
		}
	}
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn *tenant) {
			defer wg.Done()
			tn.rs, tn.err = tn.engine.Run(ctx, spec)
		}(tn)
	}
	wg.Wait()

	jobs, _ := spec.Jobs()
	for i, tn := range tenants {
		if tn.err != nil {
			t.Fatalf("tenant %d: %v", i, tn.err)
		}
		// jobs_executed arithmetic: a tenant that shared anything with its
		// neighbour would show cache or dedup hits here.
		if tn.rs.Executed != len(jobs) || tn.rs.CacheHits != 0 || tn.rs.DedupHits != 0 {
			t.Errorf("tenant %d: executed/cached/dedup = %d/%d/%d, want %d/0/0",
				i, tn.rs.Executed, tn.rs.CacheHits, tn.rs.DedupHits, len(jobs))
		}
		// Each tenant generated its own warming artifact: the batch is
		// also proof the grid ran as ONE lockstep unit per tenant.
		if m := tn.store.Metrics(); m.Generated != 1 {
			t.Errorf("tenant %d: generated %d artifacts, want 1", i, m.Generated)
		}
	}

	// Within a tenant the cache does its job: the re-run simulates nothing.
	rerun, err := tenants[0].engine.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Executed != 0 || rerun.CacheHits != len(jobs) {
		t.Errorf("re-run executed/cached = %d/%d, want 0/%d", rerun.Executed, rerun.CacheHits, len(jobs))
	}
	for i := range rerun.Results {
		if !reflect.DeepEqual(rerun.Results[i].Stats, tenants[0].rs.Results[i].Stats) {
			t.Errorf("re-run result %d diverges from the original", i)
		}
	}
}

// TestLockstepMidBatchError: one poisoned cell (robsize=0 survives spec
// validation but the detailed core refuses it) must fail alone; its
// batchmates' results still land, and the executed/skipped arithmetic
// accounts for exactly one lost cell.
func TestLockstepMidBatchError(t *testing.T) {
	spec := lockstepSweep([]int{16, 48, 80})
	spec.Axes = []Axis{{Name: "robsize", Values: []int{128, 0, 256}}}

	var (
		mu     sync.Mutex
		failed []Job
	)
	eng := &Engine{
		Workers:  1,
		Lockstep: true,
		OnJobError: func(j Job, err error) {
			mu.Lock()
			failed = append(failed, j)
			mu.Unlock()
		},
	}
	rs, err := eng.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("poisoned cell did not surface an error")
	}
	if !strings.Contains(err.Error(), "robsize=0") {
		t.Errorf("error %q does not name the poisoned cell", err)
	}
	if rs.Executed != 2 || rs.Skipped != 1 || rs.CacheHits != 0 {
		t.Errorf("executed/skipped/cached = %d/%d/%d, want 2/1/0", rs.Executed, rs.Skipped, rs.CacheHits)
	}
	if len(rs.Results) != 2 {
		t.Fatalf("%d results delivered, want the 2 healthy cells", len(rs.Results))
	}
	for _, r := range rs.Results {
		if len(r.Point) != 1 || r.Point[0].Value == 0 {
			t.Errorf("delivered result at %s; the poisoned cell must not land", r.Point)
		}
		if r.Sampled == nil || r.Stats.CommittedReal == 0 {
			t.Errorf("healthy cell %s delivered an empty result", r.Point)
		}
	}
	if len(failed) != 1 || len(failed[0].Point) != 1 || failed[0].Point[0].Value != 0 {
		t.Errorf("OnJobError saw %v, want exactly the robsize=0 cell", failed)
	}
}

// TestLockstepPartlyCachedUnit: when half of a lockstep unit's cells are
// already in the result cache, only the other half executes — once
// each, as one batch sharing one warming artifact — and the merged
// campaign equals the per-cell reference.
func TestLockstepPartlyCachedUnit(t *testing.T) {
	ctx := context.Background()
	axis := []int{16, 32, 48, 64}
	dir := t.TempDir()
	if _, err := (&Engine{Workers: 2, CacheDir: dir}).Run(ctx, lockstepSweep([]int{16, 48})); err != nil {
		t.Fatal(err)
	}
	ref, err := (&Engine{Workers: 2}).Run(ctx, lockstepSweep(axis))
	if err != nil {
		t.Fatal(err)
	}

	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		started = map[string]int{}
	)
	eng := &Engine{
		Workers:  2,
		Lockstep: true,
		CacheDir: dir,
		Ckpt:     store,
		OnJobStart: func(j Job) {
			mu.Lock()
			started[j.Point.String()]++
			mu.Unlock()
		},
	}
	rs, err := eng.Run(ctx, lockstepSweep(axis))
	if err != nil {
		t.Fatal(err)
	}
	half := len(axis) / 2
	if rs.CacheHits != half || rs.Executed != half || rs.DedupHits != 0 {
		t.Errorf("cached/executed/dedup = %d/%d/%d, want %d/%d/0", rs.CacheHits, rs.Executed, rs.DedupHits, half, half)
	}
	want := map[string]int{"iq.entries=32": 1, "iq.entries=64": 1}
	if !reflect.DeepEqual(started, want) {
		t.Errorf("OnJobStart saw %v, want each uncached cell once: %v", started, want)
	}
	if len(rs.Results) != len(ref.Results) {
		t.Fatalf("%d results, want %d", len(rs.Results), len(ref.Results))
	}
	for i := range ref.Results {
		if got, want := withoutWallClock(rs.Results[i]), withoutWallClock(ref.Results[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("result %s diverges from the per-cell reference", got.Point)
		}
	}
	if m := store.Metrics(); m.Generated != 1 {
		t.Errorf("uncached cells generated %d artifacts, want 1", m.Generated)
	}
}

// withoutWallClock drops what two executions of one job legitimately
// differ in: timings and how the result was obtained.
func withoutWallClock(r Result) Result {
	r.CompileMS, r.GenMS = 0, 0
	r.StartedAt, r.FinishedAt = time.Time{}, time.Time{}
	r.Cached, r.Dedup = false, false
	return r
}
