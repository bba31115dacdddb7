// Crash injection for the durable control plane. The oracle is the
// same brutal one the worker failure suite uses: no matter where the
// coordinator dies, a recovered campaign must finish with exports
// byte-identical to an uninterrupted local run, and no JobKey may be
// simulated-and-delivered twice (metrics-asserted). Every test here
// runs under -race in CI.
package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/wire"
)

// killServer simulates a coordinator crash from the campaigns' point of
// view: every engine context dies instantly — no drain, and run() skips
// the terminal record when the server context is dead, exactly as a
// SIGKILL would have — then waits for the run goroutines so nothing
// writes to the state directory once a second Server opens it. (The
// real SIGKILL is scripts/crash_smoke.sh's job; durable records are
// published whole by rename, so a crash cannot tear one.)
func killServer(s *Server) {
	s.cancel()
	s.wg.Wait()
}

// campaignFiles lists the files of a campaign's durable state, in name
// order.
func campaignFiles(t *testing.T, state, id string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(state, "campaigns", id))
	if err != nil {
		t.Fatalf("campaign %s durable state: %v", id, err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// waitStatus polls a campaign's status until cond is satisfied.
func waitStatus(t *testing.T, cl *Client, id string, what string, cond func(CampaignInfo) bool) CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := cl.Status(context.Background(), id)
		if err == nil && cond(info) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached %s (last status %+v, err %v)", id, what, info, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartRecoveryRandomizedCrashPoints is the PR's acceptance gate:
// kill the server after a randomized number of finished jobs (0 = crash
// before any work sticks, up to all-but-done), restart over the same
// state and cache directories, and the campaign must complete with a
// CSV export byte-identical to an uninterrupted local run. The executed
// counters across both lives must sum to exactly the job count: every
// job simulated once, finished work recovered as cache hits, never
// re-simulated.
func TestRestartRecoveryRandomizedCrashPoints(t *testing.T) {
	spec := failureSpec() // four distinct jobs: gzip,mcf × baseline,noop
	want := localCSV(t, spec)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	for it := 0; it < 3; it++ {
		k := rng.Intn(4) // finished jobs before the crash
		state, cache := t.TempDir(), t.TempDir()

		s1, cl1 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
		sub, err := cl1.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitStatus(t, cl1, sub.ID, "k jobs done", func(info CampaignInfo) bool {
			return info.Status.Done >= k
		})
		killServer(s1)
		exec1 := s1.met.jobsExecuted.Load()
		// A campaign the kill stopped leaves only its submission record;
		// one that beat the kill also left its terminal record.
		wantFiles := []string{"meta.json"}
		if _, _, _, err := s1.campaigns[sub.ID].state(); err == nil {
			wantFiles = append(wantFiles, "snap.json")
		}
		if got := campaignFiles(t, state, sub.ID); !slices.Equal(got, wantFiles) {
			t.Errorf("it %d: durable state after the kill = %v, want %v", it, got, wantFiles)
		}

		s2, cl2 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
		if got := s2.met.campaignsRecovered.Load(); got != 1 {
			t.Fatalf("it %d: campaigns recovered = %d, want 1", it, got)
		}
		waitStatus(t, cl2, sub.ID, "done", func(info CampaignInfo) bool { return info.Done })
		if got, want := campaignFiles(t, state, sub.ID), []string{"meta.json", "snap.json"}; !slices.Equal(got, want) {
			t.Errorf("it %d: durable state of the recovered campaign = %v, want %v", it, got, want)
		}

		csv, err := cl2.Export(ctx, sub.ID, "csv")
		if err != nil {
			t.Fatalf("it %d (crash after %d done): export: %v", it, k, err)
		}
		if !bytes.Equal(csv, want) {
			t.Errorf("it %d (crash after %d done): recovered export differs from local run:\n got: %s\nwant: %s",
				it, k, csv, want)
		}
		exec2 := s2.met.jobsExecuted.Load()
		if exec1+exec2 != 4 {
			t.Errorf("it %d (crash after %d done): executed %d+%d across restart, want exactly 4 (no duplicate simulations)",
				it, k, exec1, exec2)
		}
		// Everything that finished before the crash must come back from
		// the cache, not the simulator.
		if hits := s2.met.cacheHits.Load(); hits != exec1 {
			t.Errorf("it %d: recovered cache hits = %d, want %d (jobs finished before crash)", it, hits, exec1)
		}
	}
}

// TestRestartRecoversFinishedCampaign: a campaign that completed before
// the crash must come back queryable and exportable — its re-run is
// pure cache replay, zero simulations.
func TestRestartRecoversFinishedCampaign(t *testing.T) {
	spec := tinySpec()
	ctx := context.Background()
	state, cache := t.TempDir(), t.TempDir()

	s1, cl1 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	rs, err := cl1.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := rs.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	sub := registered(s1)[0]
	killServer(s1)
	if got, want := campaignFiles(t, state, sub), []string{"meta.json", "snap.json"}; !slices.Equal(got, want) {
		t.Errorf("durable state of a finished campaign = %v, want %v", got, want)
	}

	s2, cl2 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	waitStatus(t, cl2, sub, "done", func(info CampaignInfo) bool { return info.Done })
	got, err := cl2.Export(ctx, sub, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("recovered export differs:\n got: %s\nwant: %s", got, wantJSON.Bytes())
	}
	if exec := s2.met.jobsExecuted.Load(); exec != 0 {
		t.Errorf("recovering a finished campaign executed %d jobs, want 0", exec)
	}
	if hits := s2.met.cacheHits.Load(); hits != 2 {
		t.Errorf("recovering a finished campaign hit cache %d times, want 2", hits)
	}
}

// TestRestartTombstonesFailedCampaign: a campaign that failed on its
// own (not because the server died) must recover as a tombstone — its
// error and job roster are served as before the kill, nothing re-runs.
func TestRestartTombstonesFailedCampaign(t *testing.T) {
	spec := tinySpec()
	spec.Benchmarks = []string{"nosuchbench"}
	ctx := context.Background()
	state, cache := t.TempDir(), t.TempDir()

	s1, cl1 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	if _, err := cl1.Run(ctx, spec); err == nil || !strings.Contains(err.Error(), "nosuchbench") {
		t.Fatalf("campaign error = %v, want nosuchbench failure", err)
	}
	sub := registered(s1)[0]
	before, err := cl1.Status(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	killServer(s1)

	s2, cl2 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	info := waitStatus(t, cl2, sub, "done", func(info CampaignInfo) bool { return info.Done })
	if !strings.Contains(info.Error, "nosuchbench") {
		t.Errorf("recovered error = %q, want the original failure", info.Error)
	}
	if info.Status.Failed == 0 {
		t.Errorf("recovered status lost the failed jobs: %+v", info.Status)
	}
	// The terminal record's roster: same jobs, order, states and errors.
	type entry struct {
		ID, Error string
		State     campaign.JobState
	}
	roster := func(st campaign.Status) []entry {
		var out []entry
		for _, js := range st.Jobs {
			out = append(out, entry{js.ID, js.Error, js.State})
		}
		return out
	}
	if got, want := roster(info.Status), roster(before.Status); len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("recovered roster differs from the one served before the kill:\n got %+v\nwant %+v", got, want)
	}
	if _, err := cl2.Export(ctx, sub, "csv"); wire.StatusCode(err) != http.StatusUnprocessableEntity {
		t.Errorf("export of recovered failed campaign = %v, want 422", err)
	}
	if exec := s2.met.jobsExecuted.Load(); exec != 0 {
		t.Errorf("tombstoned campaign executed %d jobs, want 0", exec)
	}
	if rec := s2.met.campaignsRecovered.Load(); rec != 0 {
		t.Errorf("tombstone counted as recovered-and-resumed: %d", rec)
	}
}

// serverAt binds a Server to a fixed address so a restarted instance
// can take over the exact endpoint workers and clients are pointed at —
// the shape of a real coordinator restart.
func serverAt(t *testing.T, addr string, cfg Config) (*Server, *http.Server, string) {
	t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ { // the old socket may take a moment to free
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	s := New(cfg)
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		hs.Close()
	})
	return s, hs, ln.Addr().String()
}

// TestRestartWithWorkerAndClientAttached is the full durability story
// in one scene: a worker holds a lease and a client follows the stream
// when the coordinator dies mid-campaign. The restarted coordinator
// (same address, same state) recovers the campaign; the worker's next
// poll after its backoff joins the new boot (its
// sdiqd_workers_registered_total); the client's Run rides across the
// break and still returns a result set byte-identical to a local run.
func TestRestartWithWorkerAndClientAttached(t *testing.T) {
	spec := failureSpec()
	want := localCSV(t, spec)
	ctx := context.Background()
	state, cache := t.TempDir(), t.TempDir()
	cfg := Config{
		CacheDir:  cache,
		StateDir:  state,
		Workers:   1,
		LeaseTTL:  500 * time.Millisecond,
		WorkerTTL: 60 * time.Second,
	}

	s1, hs1, addr := serverAt(t, "127.0.0.1:0", cfg)
	base := "http://" + addr
	startWorker(t, base, "steady", 1, nil)

	cl := NewClient(base)
	runDone := make(chan struct{})
	var rs *campaign.ResultSet
	var runErr error
	go func() {
		defer close(runDone)
		rs, runErr = cl.Run(ctx, spec)
	}()

	// Let real progress land, then yank the coordinator mid-campaign.
	waitMetric(t, cl, "sdiqd_jobs_executed_total", 1)
	hs1.Close() // severs the worker's poll and the client's stream
	killServer(s1)

	s2, _, _ := serverAt(t, addr, cfg)
	select {
	case <-runDone:
	case <-time.After(90 * time.Second):
		t.Fatal("client Run never finished after coordinator restart")
	}
	if runErr != nil {
		t.Fatalf("client Run across restart: %v", runErr)
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export across restart differs from local run:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
	if rec := s2.met.campaignsRecovered.Load(); rec != 1 {
		t.Errorf("campaigns recovered = %d, want 1", rec)
	}
	// The recovered campaign can finish locally (cache hits) before the
	// worker's next poll, after its jittered backoff, joins the new boot;
	// the worker keeps running until cleanup, so wait for the metric
	// instead of racing it.
	waitMetric(t, cl, "sdiqd_workers_registered_total", 1)
	if n := s2.met.workersRegistered.Load(); n < 1 {
		t.Errorf("workers admitted by the restarted server = %d, want >= 1", n)
	}
	if exec := s1.met.jobsExecuted.Load() + s2.met.jobsExecuted.Load(); exec != 4 {
		t.Errorf("executed %d jobs across restart, want exactly 4", exec)
	}
}

// TestDeleteRemovesDurableState: DELETE must forget a campaign durably
// — a restart over the same state directory must not resurrect it.
func TestDeleteRemovesDurableState(t *testing.T) {
	ctx := context.Background()
	state, cache := t.TempDir(), t.TempDir()

	s1, cl1 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	if _, err := cl1.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	id := registered(s1)[0]
	if err := cl1.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	killServer(s1)

	s2, cl2 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	if _, err := cl2.Status(ctx, id); wire.StatusCode(err) != http.StatusNotFound {
		t.Errorf("deleted campaign after restart: status err = %v, want 404", err)
	}
	if n := len(s2.campaigns); n != 0 {
		t.Errorf("registry has %d campaigns after restart, want 0", n)
	}
}

// TestResultCacheByteBound: the janitor's step trims the shared result
// cache to -cache-max-bytes and counts the evictions.
func TestResultCacheByteBound(t *testing.T) {
	ctx := context.Background()
	s, cl := startServer(t, Config{
		CacheDir:      t.TempDir(),
		Workers:       2,
		CacheMaxBytes: 1, // evict everything the campaign writes
	})
	if _, err := cl.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	s.gcOnce()
	waitMetric(t, cl, "sdiqd_result_cache_evictions_total", 2)
}
