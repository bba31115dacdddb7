package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/power"
)

// smallSpec is a fast two-benchmark grid for engine tests.
func smallSpec() Spec {
	spec := DefaultSpec(5_000)
	spec.Benchmarks = []string{"gzip", "mcf"}
	spec.Techniques = []Technique{TechBaseline, TechNOOP}
	return spec
}

// TestEngineDeterminism: the same spec must produce identical statistics
// at any worker count, and results must come back in spec job order.
func TestEngineDeterminism(t *testing.T) {
	spec := smallSpec()
	serial, err := (&Engine{Workers: 1}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Engine{Workers: 8}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Results) != 4 || len(parallel.Results) != 4 {
		t.Fatalf("results = %d/%d, want 4", len(serial.Results), len(parallel.Results))
	}
	for i := range serial.Results {
		a, b := serial.Results[i], parallel.Results[i]
		if a.Bench != b.Bench || a.Tech != b.Tech {
			t.Fatalf("result %d ordering diverges: %s/%s vs %s/%s", i, a.Bench, a.Tech, b.Bench, b.Tech)
		}
		if a.Stats != b.Stats {
			t.Errorf("result %d stats diverge between worker counts", i)
		}
		if a.Hints != b.Hints {
			t.Errorf("result %d hints diverge: %d vs %d", i, a.Hints, b.Hints)
		}
	}
}

// TestEngineErrorCancelsAndJoins is the regression test for the old
// RunSuite failure mode, where workers kept draining jobs after the
// first error and only one error survived: a failing job must cancel the
// remaining queue, the failure must be reported, and skipped work must
// be visible.
func TestEngineErrorCancelsAndJoins(t *testing.T) {
	spec := smallSpec()
	// An unknown benchmark fails at execution time; it sits first in job
	// order so with one worker everything behind it must be skipped.
	spec.Benchmarks = []string{"nosuchbench", "gzip", "mcf"}
	rs, err := (&Engine{Workers: 1}).Run(context.Background(), spec)
	if err == nil {
		t.Fatal("campaign with failing job returned nil error")
	}
	if !strings.Contains(err.Error(), "nosuchbench") {
		t.Errorf("error does not name the failing job: %v", err)
	}
	if !strings.Contains(err.Error(), "skipped") {
		t.Errorf("error does not report skipped jobs: %v", err)
	}
	if rs == nil {
		t.Fatal("partial result set not returned")
	}
	if rs.Skipped == 0 {
		t.Error("no jobs skipped: workers kept draining after the error")
	}
	if rs.Skipped+rs.Executed+len(errsOf(err)) < 2 {
		t.Errorf("accounting off: skipped=%d executed=%d", rs.Skipped, rs.Executed)
	}
}

// errsOf unwraps a joined error into its parts.
func errsOf(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// TestEngineJoinedErrors: with every job failing and full parallelism,
// more than one failure can land before cancellation; all observed
// failures must survive into the joined error (not just the first).
func TestEngineJoinedErrors(t *testing.T) {
	spec := smallSpec()
	spec.Benchmarks = []string{"badA", "badB", "badC", "badD"}
	spec.Techniques = []Technique{TechBaseline}
	_, err := (&Engine{Workers: 4}).Run(context.Background(), spec)
	if err == nil {
		t.Fatal("want error")
	}
	var named int
	for _, b := range spec.Benchmarks {
		if strings.Contains(err.Error(), b) {
			named++
		}
	}
	if named == 0 {
		t.Errorf("joined error names no failing benchmark: %v", err)
	}
	// Each failure that was observed must be joined, and each part must
	// still be a distinct error value.
	if parts := errsOf(err); len(parts) < 2 { // >=1 job error + skip report
		t.Errorf("errors not joined: %v", err)
	}
}

// TestEngineContextCancellation: a pre-cancelled context runs nothing.
func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := smallSpec()
	rs, err := (&Engine{Workers: 2}).Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rs.Executed != 0 || len(rs.Results) != 0 {
		t.Errorf("cancelled campaign executed %d jobs", rs.Executed)
	}
	if rs.Skipped != 4 {
		t.Errorf("skipped = %d, want 4", rs.Skipped)
	}
}

// TestEngineEmptyCampaign: a spec with no benchmarks resolves to the
// full suite, but an explicit empty technique list is the caller saying
// "nothing" — exercised via a zero-point sweep instead.
func TestEngineOnResultCallback(t *testing.T) {
	spec := smallSpec()
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []Technique{TechBaseline}
	var seen []string
	e := &Engine{Workers: 2, OnResult: func(r Result) { seen = append(seen, r.Bench) }}
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "gzip" {
		t.Errorf("OnResult saw %v", seen)
	}
}

// TestEngineSweepGrid runs a real multi-point sweep end to end: every
// (bench, tech, point) cell must land, and the derived per-point metrics
// must be queryable.
func TestEngineSweepGrid(t *testing.T) {
	spec := DefaultSpec(4_000)
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []Technique{TechBaseline, TechExtension}
	spec.Axes = []Axis{{Name: "iq.entries", Values: []int{16, 80}}}
	rs, err := (&Engine{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Complete() {
		t.Fatalf("incomplete sweep: %d results", len(rs.Results))
	}
	for _, pt := range rs.Points() {
		if _, ok := rs.Get("gzip", TechBaseline, pt); !ok {
			t.Errorf("missing baseline at %s", pt)
		}
		loss := rs.IPCLossPct("gzip", TechExtension, pt)
		if loss < -50 || loss > 100 {
			t.Errorf("implausible IPC loss %f at %s", loss, pt)
		}
		if _, err := rs.Savings("gzip", TechExtension, pt); err != nil {
			t.Errorf("savings at %s: %v", pt, err)
		}
	}
	cfg, err := rs.ConfigAt(rs.Points()[0])
	if err != nil || cfg.IQ.Entries != 16 {
		t.Errorf("ConfigAt = %d entries, %v", cfg.IQ.Entries, err)
	}
}

// fakeRunner records every job the engine hands it and executes inline,
// standing in for the campaign service's remote dispatcher.
type fakeRunner struct {
	mu     sync.Mutex
	keys   []string
	params []power.Params
}

func (f *fakeRunner) RunJob(ctx context.Context, job *Job, key string, params power.Params) (Result, error) {
	f.mu.Lock()
	f.keys = append(f.keys, key)
	f.params = append(f.params, params)
	f.mu.Unlock()
	return ExecuteStored(ctx, job, nil)
}

// TestEngineRunnerIndirection: with a Runner installed, every
// cache-missed job is routed through it (with its JobKey and the
// campaign's power params), its results land exactly like inline ones,
// and a cache-warm re-run never consults the runner at all.
func TestEngineRunnerIndirection(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	fr := &fakeRunner{}
	eng := &Engine{Workers: 2, CacheDir: dir, Runner: fr}
	rs, err := eng.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Complete() || rs.Executed != 4 {
		t.Fatalf("runner campaign incomplete: %d results, %d executed", len(rs.Results), rs.Executed)
	}
	if len(fr.keys) != 4 {
		t.Fatalf("runner saw %d jobs, want 4", len(fr.keys))
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := range jobs {
		k, err := JobKey(&jobs[i], spec.Params)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = true
	}
	for i, k := range fr.keys {
		if !want[k] {
			t.Errorf("runner key %d = %.12s not a campaign JobKey", i, k)
		}
		if fr.params[i] != spec.Params {
			t.Errorf("runner call %d got wrong power params", i)
		}
	}
	// Inline reference run: identical stats.
	ref, err := (&Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Results {
		if ref.Results[i].Stats != rs.Results[i].Stats {
			t.Errorf("result %d stats diverge between runner and inline execution", i)
		}
	}
	// Warm cache: the runner must not be consulted again.
	rs2, err := (&Engine{Workers: 2, CacheDir: dir, Runner: fr}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.CacheHits != 4 || len(fr.keys) != 4 {
		t.Errorf("warm re-run: %d cache hits, runner saw %d total jobs (want 4, 4)",
			rs2.CacheHits, len(fr.keys))
	}
}

// strayPointRunner executes inline and returns each result with another
// job's sweep point, as a worker's upload of a result from its scratch
// cache may carry one.
type strayPointRunner struct{}

func (strayPointRunner) RunJob(ctx context.Context, job *Job, key string, params power.Params) (Result, error) {
	res, err := ExecuteStored(ctx, job, nil)
	res.Point = Point{{Axis: "iq.entries", Value: 999}}
	return res, err
}

// TestEngineStampsPoints: every delivered result carries its own job's
// sweep point, whatever the result came back with — executed by a
// Runner that returned another point, then served from the cache
// entries those results were stored under — in the ResultSet and in
// OnResult.
func TestEngineStampsPoints(t *testing.T) {
	spec := DefaultSpec(4_000)
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []Technique{TechBaseline}
	spec.Axes = []Axis{{Name: "iq.entries", Values: []int{16, 80}}}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, how := range []string{"executed", "cached"} {
		var mu sync.Mutex
		seen := map[string]bool{}
		eng := &Engine{Workers: 2, CacheDir: dir, Runner: strayPointRunner{}, OnResult: func(r Result) {
			mu.Lock()
			seen[r.Point.String()] = true
			mu.Unlock()
		}}
		rs, err := eng.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := rs.Executed + rs.CacheHits; n != len(jobs) || (how == "cached") != (rs.CacheHits == len(jobs)) {
			t.Fatalf("%s: %d executed, %d cache hits", how, rs.Executed, rs.CacheHits)
		}
		for i, r := range rs.Results {
			if r.Point.String() != jobs[i].Point.String() {
				t.Errorf("%s: result %d at %q, want its job's %q", how, i, r.Point, jobs[i].Point)
			}
			if !seen[jobs[i].Point.String()] {
				t.Errorf("%s: OnResult never saw %q (saw %v)", how, jobs[i].Point, seen)
			}
		}
		if len(seen) != len(jobs) {
			t.Errorf("%s: OnResult saw points %v, want only the jobs'", how, seen)
		}
	}
}
