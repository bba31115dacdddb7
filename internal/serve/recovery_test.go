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
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/wire"
	"repro/internal/worker"
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

// TestRestartRecoveryRandomizedCrashPoints kills the server after a
// randomized number of finished jobs (0 = crash before any work
// sticks, up to all-but-done), restarts over the same state and cache
// directories, and the campaign must complete with a CSV export
// byte-identical to an uninterrupted local run. The executed counters
// across both lives must sum to exactly the job count: every job
// simulated once. A campaign the kill stopped re-runs, its finished
// work served as cache hits; one that ended before the kill comes back
// from its terminal record, with nothing re-run.
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
		// A campaign the kill stopped leaves only its submission record
		// and re-runs; one that beat the kill also left its terminal
		// record and is restored from it.
		wantFiles := []string{"meta.json"}
		wantRecovered, wantHits := int64(1), exec1
		if _, _, _, err := s1.campaigns[sub.ID].state(); err == nil {
			wantFiles = append(wantFiles, "snap.json")
			wantRecovered, wantHits = 0, 0
		}
		if got := campaignFiles(t, state, sub.ID); !slices.Equal(got, wantFiles) {
			t.Errorf("it %d: durable state after the kill = %v, want %v", it, got, wantFiles)
		}

		s2, cl2 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
		if got := s2.met.campaignsRecovered.Load(); got != wantRecovered {
			t.Fatalf("it %d: campaigns recovered = %d, want %d", it, got, wantRecovered)
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
		// A re-run serves everything that finished before the crash from
		// the cache, not the simulator; a restored campaign reads neither.
		if hits := s2.met.cacheHits.Load(); hits != wantHits {
			t.Errorf("it %d: recovered cache hits = %d, want %d", it, hits, wantHits)
		}
	}
}

// outcome is what a server serves of one ended campaign: its status
// and both exports.
type outcome struct {
	info      CampaignInfo
	csv, json []byte
}

func served(t *testing.T, cl *Client, id string) outcome {
	t.Helper()
	ctx := context.Background()
	var o outcome
	var err error
	if o.info, err = cl.Status(ctx, id); err != nil {
		t.Fatal(err)
	}
	if o.csv, err = cl.Export(ctx, id, "csv"); err != nil {
		t.Fatal(err)
	}
	if o.json, err = cl.Export(ctx, id, "json"); err != nil {
		t.Fatal(err)
	}
	return o
}

// restoreAcrossRestart runs spec to its end, kills the server, empties
// the result cache and boots a second server over the same state. The
// second must serve the campaign as the first did (status with its
// finish time, counters and roster, and both exports) from the terminal
// record alone: no job executed or served from the cache, no campaign
// counted as recovered, and snap.json as the first server left it. It
// returns the status served before the kill and Run's error.
func restoreAcrossRestart(t *testing.T, spec campaign.Spec) (CampaignInfo, error) {
	t.Helper()
	state, cache := t.TempDir(), t.TempDir()
	s1, cl1 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	_, runErr := cl1.Run(context.Background(), spec)
	id := registered(s1)[0]
	before := served(t, cl1, id)
	killServer(s1)
	if got, want := campaignFiles(t, state, id), []string{"meta.json", "snap.json"}; !slices.Equal(got, want) {
		t.Fatalf("durable state of an ended campaign = %v, want %v", got, want)
	}
	snapPath := filepath.Join(state, "campaigns", id, "snap.json")
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(cache); err != nil {
		t.Fatal(err)
	}

	s2, cl2 := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})
	after := served(t, cl2, id)
	if !reflect.DeepEqual(after.info, before.info) {
		t.Errorf("restored status differs from the one served before the kill:\n got %+v\nwant %+v", after.info, before.info)
	}
	if !bytes.Equal(after.csv, before.csv) {
		t.Errorf("restored CSV export differs:\n got: %s\nwant: %s", after.csv, before.csv)
	}
	if !bytes.Equal(after.json, before.json) {
		t.Errorf("restored JSON export differs:\n got: %s\nwant: %s", after.json, before.json)
	}
	for name, n := range map[string]int64{
		"jobs executed":       s2.met.jobsExecuted.Load(),
		"cache hits":          s2.met.cacheHits.Load(),
		"campaigns recovered": s2.met.campaignsRecovered.Load(),
	} {
		if n != 0 {
			t.Errorf("restoring an ended campaign: %s = %d, want 0", name, n)
		}
	}
	if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, snap) {
		t.Errorf("the second boot changed the terminal record (err %v):\n got %s\nwant %s", err, got, snap)
	}
	return before.info, runErr
}

// TestRestartRecoversFinishedCampaign: a campaign that finished before
// the crash comes back from its terminal record as it ended, exact or
// sampled, even with its cached results gone.
func TestRestartRecoversFinishedCampaign(t *testing.T) {
	for name, spec := range map[string]campaign.Spec{
		"exact":   tinySpec(),
		"sampled": sampledSpec("sampled", []string{"gzip"}, 48, 64),
	} {
		t.Run(name, func(t *testing.T) {
			info, err := restoreAcrossRestart(t, spec)
			if err != nil || info.Error != "" || info.Status.Done != info.Jobs {
				t.Errorf("campaign ended with %v (%q), %d of %d jobs done", err, info.Error, info.Status.Done, info.Jobs)
			}
		})
	}
}

// TestRestartTombstonesFailedCampaign: a campaign that failed on its
// own (not because the server died) comes back from its terminal record
// as it ended: its error, roster and counters, and the exports of its
// partial results, none or some.
func TestRestartTombstonesFailedCampaign(t *testing.T) {
	for name, benches := range map[string][]string{
		"no results":      {"nosuchbench"},
		"partial results": {"gzip", "nosuchbench"},
	} {
		t.Run(name, func(t *testing.T) {
			spec := tinySpec()
			spec.Benchmarks = benches
			info, err := restoreAcrossRestart(t, spec)
			if err == nil || !strings.Contains(err.Error(), "nosuchbench") || !strings.Contains(info.Error, "nosuchbench") {
				t.Errorf("campaign error = %v (served %q), want the nosuchbench failure", err, info.Error)
			}
			if info.Status.Failed == 0 {
				t.Errorf("no failed job in the status: %+v", info.Status)
			}
		})
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
// The worker holds its second lease until the kill is over, so the
// campaign cannot end before it.
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
	killed := make(chan struct{})
	var leases atomic.Int32
	startWorker(t, base, "steady", 1, func(w *worker.Worker) {
		w.OnLease = func(worker.Lease) {
			if leases.Add(1) == 2 {
				select {
				case <-killed:
				case <-t.Context().Done():
				}
			}
		}
	})

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
	close(killed)

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
