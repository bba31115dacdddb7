package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightDedups: concurrent Do calls with one key run fn exactly once
// and every other caller shares the result.
func TestFlightDedups(t *testing.T) {
	var f Flight
	var execs atomic.Int32
	release := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := f.Do(context.Background(), "k", func() (Result, error) {
				execs.Add(1)
				<-release // hold the call open so every caller piles up
				return Result{Bench: "b", Hints: 7}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if res.Hints != 7 {
				t.Errorf("result not shared: %+v", res)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the callers arrive, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Errorf("fn executed %d times, want 1", n)
	}
	if n := sharedCount.Load(); n != callers-1 {
		t.Errorf("%d callers saw shared=true, want %d", n, callers-1)
	}
}

// TestFlightDistinctKeysRunIndependently: different keys never wait on
// each other.
func TestFlightDistinctKeysRunIndependently(t *testing.T) {
	var f Flight
	var execs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shared, err := f.Do(context.Background(), key, func() (Result, error) {
				execs.Add(1)
				return Result{}, nil
			})
			if err != nil || shared {
				t.Errorf("key %s: shared=%v err=%v", key, shared, err)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != 4 {
		t.Errorf("executed %d, want 4", n)
	}
}

// TestFlightWaiterCancellation: a waiter whose own context ends stops
// waiting with its context's error while the leader keeps running.
func TestFlightWaiterCancellation(t *testing.T) {
	var f Flight
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		f.Do(context.Background(), "k", func() (Result, error) {
			close(leaderIn)
			<-release
			return Result{}, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, _, err := f.Do(ctx, "k", func() (Result, error) {
		t.Error("waiter must not execute")
		return Result{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestFlightRetriesAfterLeaderCancelled: when the executing caller is
// cancelled, a live waiter must not inherit the foreign cancellation —
// it retries and becomes the new executor.
func TestFlightRetriesAfterLeaderCancelled(t *testing.T) {
	var f Flight
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	go func() {
		f.Do(leaderCtx, "k", func() (Result, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return Result{}, fmt.Errorf("job: %w", leaderCtx.Err())
		})
	}()
	<-leaderIn

	done := make(chan struct{})
	var res Result
	var shared bool
	var err error
	go func() {
		defer close(done)
		res, shared, err = f.Do(context.Background(), "k", func() (Result, error) {
			return Result{Hints: 3}, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter enqueue
	cancelLeader()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never retried after leader cancellation")
	}
	if err != nil || shared || res.Hints != 3 {
		t.Errorf("retry: res=%+v shared=%v err=%v, want own execution", res, shared, err)
	}
}

// TestGateBoundsConcurrency: a shared gate keeps the number of
// simultaneously running executions at its slot count.
func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(2)
	var running, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			defer g.Release()
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeds gate size 2", p)
	}
}

// TestGateAcquireHonoursContext: waiting for a slot ends with the
// context.
func TestGateAcquireHonoursContext(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	g.Release()
}

// TestJobKeyExactModePinned pins the exact-mode cache key of the
// canonical paper job. The key is a content hash of (schema, bench,
// tech, derived config, budget, seed, power params); if this test
// breaks, every pre-existing on-disk cache is invalidated and the
// change must either be reverted or ship with a cacheSchema bump and a
// regenerated constant.
func TestJobKeyExactModePinned(t *testing.T) {
	const want = "f28e8df2b4d1a3e9270cb3fb475f72fbb8a28b7693686e459ad342b9f5746c01"
	spec := DefaultSpec(500_000)
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []Technique{TechBaseline}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	got, err := JobKey(&jobs[0], spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("exact-mode JobKey drifted:\n got %s\nwant %s", got, want)
	}
}

// TestEngineFlightDedupAcrossEngines is the in-process model of the
// campaign service: two engines run the same spec concurrently over one
// cache directory and one Flight. Every JobKey must be simulated at
// most once fleet-wide, the loser's jobs landing as dedup or cache
// hits, and both result sets must agree exactly.
func TestEngineFlightDedupAcrossEngines(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	flight := &Flight{}

	var mu sync.Mutex
	started := map[string]int{}
	onStart := func(j Job) {
		k, err := JobKey(&j, spec.Params)
		if err != nil {
			t.Errorf("JobKey: %v", err)
			return
		}
		mu.Lock()
		started[k]++
		mu.Unlock()
	}

	const engines = 4
	rss := make([]*ResultSet, engines)
	errs := make([]error, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := &Engine{Workers: 2, CacheDir: dir, Flight: flight, OnJobStart: onStart}
			rss[i], errs[i] = e.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()

	jobs, _ := spec.Jobs()
	for i := 0; i < engines; i++ {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if len(rss[i].Results) != len(jobs) {
			t.Fatalf("engine %d: %d results, want %d", i, len(rss[i].Results), len(jobs))
		}
	}
	for k, n := range started {
		if n > 1 {
			t.Errorf("job key %s simulated %d times across engines, want at most 1", k[:12], n)
		}
	}
	var executed, served int
	for i := 0; i < engines; i++ {
		executed += rss[i].Executed
		served += rss[i].CacheHits + rss[i].DedupHits
	}
	if executed != len(jobs) {
		t.Errorf("fleet executed %d simulations, want exactly %d", executed, len(jobs))
	}
	if served != (engines-1)*len(jobs) {
		t.Errorf("fleet served %d jobs from cache+dedup, want %d", served, (engines-1)*len(jobs))
	}
	// Identical campaigns must agree result for result, however each
	// engine's copy was obtained.
	for i := 1; i < engines; i++ {
		for j := range rss[0].Results {
			a, b := rss[0].Results[j], rss[i].Results[j]
			if a.Bench != b.Bench || a.Tech != b.Tech || a.Stats != b.Stats {
				t.Errorf("engine %d result %d diverges from engine 0", i, j)
			}
		}
	}
}

// TestExecuteStampsTimestamps: per-job wall-clock meta must be real and
// ordered, and must survive the disk cache so a cache hit exports the
// populating run's stamps byte-identically.
func TestExecuteStampsTimestamps(t *testing.T) {
	spec := smallSpec()
	spec.Benchmarks, spec.Techniques = []string{"gzip"}, []Technique{TechBaseline}
	dir := t.TempDir()
	run := func() Result {
		rs, err := (&Engine{Workers: 1, CacheDir: dir}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Results[0]
	}
	fresh := run()
	if fresh.StartedAt.IsZero() || fresh.FinishedAt.IsZero() {
		t.Fatalf("executed result missing timestamps: %+v", fresh)
	}
	if fresh.FinishedAt.Before(fresh.StartedAt) {
		t.Errorf("finished %v before started %v", fresh.FinishedAt, fresh.StartedAt)
	}
	cached := run()
	if !cached.Cached {
		t.Fatal("second run did not hit the cache")
	}
	if !cached.StartedAt.Equal(fresh.StartedAt) || !cached.FinishedAt.Equal(fresh.FinishedAt) {
		t.Errorf("cache hit re-stamped timestamps: fresh %v/%v cached %v/%v",
			fresh.StartedAt, fresh.FinishedAt, cached.StartedAt, cached.FinishedAt)
	}
}
