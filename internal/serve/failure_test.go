// Failure injection for the remote worker pool. The campaign engine's
// results are deterministic and content-addressed, so correctness under
// worker failure has a brutal, simple oracle: no matter which workers
// die, which leases expire, and which uploads are rejected, a campaign
// must finish with a CSV export byte-identical to the same spec run
// fully locally — and no JobKey may ever be simulated-and-delivered
// twice. Every test here runs under -race in CI.
package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/wire"
	"repro/internal/worker"
)

// startWorker runs an in-process worker against the test server,
// hard-stopped (like a machine death) at test cleanup.
func startWorker(t *testing.T, base, name string, conc int, hook func(*worker.Worker)) {
	t.Helper()
	w := &worker.Worker{Server: base, Name: name, Scratch: t.TempDir(), Concurrency: conc}
	if hook != nil {
		hook(w)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = w.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// join admits a scripted worker as a real one joins, with a short lease
// poll. Call it before submitting anything the worker should take:
// while no worker is live, the coordinator's slots take every job.
func join(t *testing.T, api *worker.API, id string) {
	t.Helper()
	if l, ok, err := api.Lease(context.Background(), worker.LeaseRequest{WorkerID: id, WaitMS: 1}); ok || err != nil {
		t.Fatalf("worker %s joining: leased %+v, %v", id, l, err)
	}
}

// waitMetric polls /metrics until name reaches at least want.
func waitMetric(t *testing.T, cl *Client, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v := metricValue(t, fetchMetrics(t, cl), name); v >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %g:\n%s", name, want, fetchMetrics(t, cl))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// localCSV runs spec on a plain local engine and returns its CSV bytes
// — the byte-identity oracle every failure scenario is judged against.
func localCSV(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	rs, err := (&campaign.Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// failureSpec is the four-job grid the failure scenarios run.
func failureSpec() campaign.Spec {
	spec := campaign.DefaultSpec(5_000)
	spec.Name = "failure-injection"
	spec.Benchmarks = []string{"gzip", "mcf"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	return spec
}

// TestWorkerDeathMidJobReleased is the PR's acceptance gate: a worker
// that takes a lease and dies — context cancelled, heartbeats gone,
// nothing uploaded, exactly like a yanked power cord — must not cost
// the campaign anything. The server's lease TTL expires, the job is
// re-leased exactly once onto the surviving worker, the campaign
// completes, and the export is byte-for-byte what a pure-local run
// produces, with no JobKey simulated twice.
func TestWorkerDeathMidJobReleased(t *testing.T) {
	_, cl := startServer(t, Config{
		CacheDir:   t.TempDir(),
		Workers:    2,
		LeaseTTL:   250 * time.Millisecond,
		WorkerTTL:  60 * time.Second,
		JobRetries: 2,
	})
	ctx := context.Background()
	spec := failureSpec()

	// The doomed worker: its own context dies the instant it is handed
	// its first lease, before any heartbeat or upload — from the
	// server's side it simply goes silent with a job checked out.
	dctx, kill := context.WithCancel(context.Background())
	doomed := &worker.Worker{Server: cl.Base, Name: "doomed", Scratch: t.TempDir(), Concurrency: 1}
	leased := make(chan worker.Lease, 1)
	var once sync.Once
	doomed.OnLease = func(l worker.Lease) {
		once.Do(func() {
			leased <- l
			kill()
		})
	}
	doomedDone := make(chan struct{})
	go func() { defer close(doomedDone); _ = doomed.Run(dctx) }()
	t.Cleanup(func() { kill(); <-doomedDone })
	waitMetric(t, cl, "sdiqd_workers_connected", 1)

	sub, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var killedLease worker.Lease // the doomed worker is now dead, holding it
	select {
	case killedLease = <-leased:
	case <-time.After(10 * time.Second):
		t.Fatal("the doomed worker was never leased a job in 10 s: no lease to kill it holding")
	}

	// The survivor arrives after the death and inherits the fleet.
	startWorker(t, cl.Base, "survivor", 2, nil)

	if err := cl.Stream(ctx, sub.ID, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done || info.Error != "" || info.Status.Done != 4 {
		t.Fatalf("campaign after worker death: %+v", info)
	}

	remote, err := cl.Export(ctx, sub.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if local := localCSV(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("export after worker death differs from pure-local run:\nremote:\n%s\nlocal:\n%s",
			remote, local)
	}

	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_leases_expired_total"); got != 1 {
		t.Errorf("leases expired = %g, want exactly 1 (the killed lease %s)", got, killedLease.ID)
	}
	if got := metricValue(t, text, "sdiqd_lease_requeues_total"); got != 1 {
		t.Errorf("requeues = %g, want exactly 1: the dead worker's job re-leased exactly once", got)
	}
	if got := metricValue(t, text, "sdiqd_leases_granted_total"); got != 5 {
		t.Errorf("leases granted = %g, want 5 (4 jobs + 1 recovery re-lease)", got)
	}
	// No duplicate simulation of any JobKey: the four unique jobs were
	// each delivered exactly once, all by workers, none twice.
	if got := metricValue(t, text, "sdiqd_jobs_executed_total"); got != 4 {
		t.Errorf("executed = %g, want 4 — a killed job was simulated twice or lost", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_remote_total"); got != 4 {
		t.Errorf("remote jobs = %g, want 4", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_local_total"); got != 0 {
		t.Errorf("local jobs = %g, want 0 (recovery must come from the fleet, not the coordinator's slots)", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_failed_total"); got != 0 {
		t.Errorf("%g jobs failed", got)
	}
}

// TestLeaseExpiryLocalFallbackAndLateUpload: with no retry budget and a
// fleet that leases a job and then drops every heartbeat, the job must
// pass to the coordinator's own slots (the campaign never hangs on a
// dead fleet), and the dead worker's eventual late upload must be
// answered 410 and discarded — the slot's result already stands.
func TestLeaseExpiryLocalFallbackAndLateUpload(t *testing.T) {
	_, cl := startServer(t, Config{
		CacheDir:   t.TempDir(),
		Workers:    1,
		LeaseTTL:   200 * time.Millisecond,
		WorkerTTL:  60 * time.Second,
		JobRetries: -1, // no re-leasing: expiry hands the job to the slots
	})
	ctx := context.Background()
	spec := failureSpec()
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}

	api := worker.NewAPI(cl.Base)
	const zombie = "zombie"
	join(t, api, zombie)

	sub, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var l worker.Lease
	for ok := false; !ok; {
		if l, ok, err = api.Lease(ctx, worker.LeaseRequest{WorkerID: zombie, WaitMS: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	// Never heartbeat, never upload: the lease dies of silence, and the
	// server — out of retries — runs the job on its own slot.
	if err := cl.Stream(ctx, sub.ID, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}

	remote, err := cl.Export(ctx, sub.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if local := localCSV(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("export after the handover to the slots differs from pure-local run")
	}

	// The zombie finally reports in; its lease is long gone.
	if _, err := api.Complete(ctx, l.ID, worker.ResultUpload{
		WorkerID: zombie, Key: l.Key, Error: "zombie waking up",
	}); err != worker.ErrLeaseGone {
		t.Errorf("late upload error = %v, want ErrLeaseGone", err)
	}
	if _, err := api.Heartbeat(ctx, l.ID, worker.Heartbeat{WorkerID: zombie}); err != worker.ErrLeaseGone {
		t.Errorf("late heartbeat error = %v, want ErrLeaseGone", err)
	}

	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_leases_expired_total"); got != 1 {
		t.Errorf("leases expired = %g, want 1", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_local_total"); got != 1 {
		t.Errorf("local jobs = %g, want 1", got)
	}
	if got := metricValue(t, text, "sdiqd_lease_requeues_total"); got != 0 {
		t.Errorf("requeues = %g, want 0 (no retry budget)", got)
	}
	if got := metricValue(t, text, "sdiqd_late_uploads_total"); got != 1 {
		t.Errorf("late uploads = %g, want 1", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_executed_total"); got != 1 {
		t.Errorf("executed = %g, want 1 — the job must be simulated exactly once", got)
	}
}

// TestCorruptUploadRejectedThenRecovered: an upload whose JobKey does
// not match the leased job is the one thing that must never reach the
// shared cache. The server rejects it with 422, re-queues the job, and
// a subsequent honest upload completes the campaign with the correct
// bytes.
func TestCorruptUploadRejectedThenRecovered(t *testing.T) {
	_, cl := startServer(t, Config{
		CacheDir:   t.TempDir(),
		Workers:    1,
		LeaseTTL:   60 * time.Second,
		WorkerTTL:  60 * time.Second,
		JobRetries: 1,
	})
	ctx := context.Background()
	spec := failureSpec()
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}

	api := worker.NewAPI(cl.Base)
	const byzantine = "byzantine"
	join(t, api, byzantine)
	sub, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var l worker.Lease
	for ok := false; !ok; {
		if l, ok, err = api.Lease(ctx, worker.LeaseRequest{WorkerID: byzantine, WaitMS: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Attempt != 1 {
		t.Fatalf("first lease attempt = %d", l.Attempt)
	}

	// A result for some other job entirely: wrong key, wrong bench.
	bogus := campaign.Result{Bench: "mcf", Tech: campaign.TechBaseline}
	_, err = api.Complete(ctx, l.ID, worker.ResultUpload{
		WorkerID: byzantine,
		Key:      strings.Repeat("00", 32),
		Result:   &bogus,
	})
	if err == nil || err == worker.ErrLeaseGone || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("corrupt upload error = %v, want a 422 rejection", err)
	}

	// The job is back on the queue; lease it again and play it straight
	// this time, running the real executor like a worker would.
	var l2 worker.Lease
	for ok := false; !ok; {
		if l2, ok, err = api.Lease(ctx, worker.LeaseRequest{WorkerID: byzantine, WaitMS: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	if l2.Attempt != 2 || l2.Key != l.Key {
		t.Fatalf("re-lease attempt=%d key match=%v, want attempt 2 of the same job", l2.Attempt, l2.Key == l.Key)
	}
	job := l2.Job.Job()
	res, err := campaign.ExecuteStored(ctx, &job, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := api.Complete(ctx, l2.ID, worker.ResultUpload{
		WorkerID: byzantine, Key: l2.Key, Result: &res,
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("honest upload: %+v, %v", resp, err)
	}

	if err := cl.Stream(ctx, sub.ID, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	remote, err := cl.Export(ctx, sub.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if local := localCSV(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("post-recovery export differs from pure-local run")
	}
	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_results_rejected_total"); got != 1 {
		t.Errorf("rejected = %g, want 1", got)
	}
	if got := metricValue(t, text, "sdiqd_lease_requeues_total"); got != 1 {
		t.Errorf("requeues = %g, want 1", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_remote_total"); got != 1 {
		t.Errorf("remote jobs = %g, want 1", got)
	}
}

// TestImpostorUploadConflicts: an upload from a worker that does not
// hold a live lease is answered 409 and changes nothing — the lease
// stays live, its job stays leased, and neither a late upload nor a
// requeue is counted — so the holder's own upload is then accepted. A
// heartbeat from the impostor is answered 410, which makes a worker
// drop the job.
func TestImpostorUploadConflicts(t *testing.T) {
	_, cl := startServer(t, Config{
		CacheDir:  t.TempDir(),
		Workers:   1,
		LeaseTTL:  time.Minute,
		WorkerTTL: time.Minute,
	})
	ctx := context.Background()
	spec := failureSpec()
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}

	api := worker.NewAPI(cl.Base)
	const holder, impostor = "holder", "impostor"
	join(t, api, holder)
	join(t, api, impostor)
	sub, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var l worker.Lease
	for ok := false; !ok; {
		if l, ok, err = api.Lease(ctx, worker.LeaseRequest{WorkerID: holder, WaitMS: 2000}); err != nil {
			t.Fatal(err)
		}
	}
	job := l.Job.Job()
	res, err := campaign.ExecuteStored(ctx, &job, nil)
	if err != nil {
		t.Fatal(err)
	}
	up := worker.ResultUpload{WorkerID: impostor, Key: l.Key, Result: &res}
	if _, err := api.Complete(ctx, l.ID, up); wire.StatusCode(err) != http.StatusConflict {
		t.Fatalf("impostor's upload: err = %v, want 409", err)
	}
	if _, err := api.Heartbeat(ctx, l.ID, worker.Heartbeat{WorkerID: impostor}); err != worker.ErrLeaseGone {
		t.Errorf("impostor's heartbeat: err = %v, want ErrLeaseGone", err)
	}
	text := fetchMetrics(t, cl)
	for name, want := range map[string]float64{
		"sdiqd_late_uploads_total":     0,
		"sdiqd_lease_requeues_total":   0,
		"sdiqd_results_rejected_total": 1,
	} {
		if got := metricValue(t, text, name); got != want {
			t.Errorf("after the impostor's upload %s = %g, want %g", name, got, want)
		}
	}

	up.WorkerID = holder
	if resp, err := api.Complete(ctx, l.ID, up); err != nil || !resp.Accepted {
		t.Fatalf("holder's upload: %+v, %v", resp, err)
	}
	if err := cl.Stream(ctx, sub.ID, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	remote, err := cl.Export(ctx, sub.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if local := localCSV(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("export after the impostor's upload differs from pure-local run")
	}
	if got := metricValue(t, fetchMetrics(t, cl), "sdiqd_jobs_remote_total"); got != 1 {
		t.Errorf("remote jobs = %g, want 1", got)
	}
}

// TestSilentFleetHandsOver: a worker that joins with one lease poll and
// never polls again keeps the coordinator's slots off the queue only
// until it turns stale. About WorkerTTL later the slots take the whole campaign, long
// before a lease could expire, and nothing is ever leased.
func TestSilentFleetHandsOver(t *testing.T) {
	const leaseTTL = 5 * time.Second
	_, cl := startServer(t, Config{
		CacheDir:  t.TempDir(),
		Workers:   2,
		LeaseTTL:  leaseTTL,
		WorkerTTL: 300 * time.Millisecond,
	})
	ctx := context.Background()
	spec := failureSpec()
	join(t, worker.NewAPI(cl.Base), "silent")
	start := time.Now()
	rs, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= leaseTTL {
		t.Errorf("campaign took %v beside a silent fleet, want less than LeaseTTL %v", took, leaseTTL)
	}
	if !bytes.Equal(csvOf(t, rs), localCSV(t, spec)) {
		t.Error("export after the handover differs from pure-local run")
	}
	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_jobs_local_total"); got != 4 {
		t.Errorf("local jobs = %g, want 4: the slots take the silent fleet's queue", got)
	}
	if got := metricValue(t, text, "sdiqd_leases_granted_total"); got != 0 {
		t.Errorf("leases granted = %g, want 0", got)
	}
}

// TestWorkerJobErrorFallsBackToAuthoritativeError: a job that fails on
// the workers (here: an unknown benchmark) is retried remotely within
// budget, then runs on the coordinator's own slot — whose execution
// produces the authoritative error the campaign reports, exactly as a
// fleet-less server would.
func TestWorkerJobErrorFallsBackToAuthoritativeError(t *testing.T) {
	_, cl := startServer(t, Config{
		CacheDir:   t.TempDir(),
		Workers:    1,
		LeaseTTL:   5 * time.Second,
		WorkerTTL:  60 * time.Second,
		JobRetries: 1,
	})
	ctx := context.Background()
	startWorker(t, cl.Base, "honest", 1, nil)
	waitMetric(t, cl, "sdiqd_workers_connected", 1)

	spec := failureSpec()
	spec.Benchmarks = []string{"nosuchbench"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	if _, err := cl.Run(ctx, spec); err == nil || !strings.Contains(err.Error(), "nosuchbench") {
		t.Fatalf("failed-job campaign error = %v, want the benchmark error", err)
	}
	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_worker_job_failures_total"); got != 2 {
		t.Errorf("worker failures = %g, want 2 (initial + one retry)", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_failed_total"); got != 1 {
		t.Errorf("failed jobs = %g, want 1", got)
	}
}

// TestWorkerRejoinsAfterRegistryLoss: a server that forgets its
// workers (modelling a sdiqd restart under a live fleet) admits a
// worker again at its next lease poll, with no error and nothing to
// re-register, and the worker keeps serving jobs.
func TestWorkerRejoinsAfterRegistryLoss(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir: t.TempDir(),
		Workers:  1,
		LeaseTTL: 2 * time.Second,
		// Short staleness window → short poll interval, so the worker's
		// next poll lands quickly after the wipe below.
		WorkerTTL: 500 * time.Millisecond,
	})
	ctx := context.Background()
	startWorker(t, cl.Base, "amnesiac-victim", 1, nil)
	waitMetric(t, cl, "sdiqd_workers_connected", 1)

	// Wipe the registry out from under the worker, like a restart would.
	s.disp.mu.Lock()
	clear(s.disp.workers)
	s.disp.mu.Unlock()

	// The worker's next poll admits it again.
	waitMetric(t, cl, "sdiqd_workers_registered_total", 2)
	waitMetric(t, cl, "sdiqd_workers_connected", 1)

	// The rejoined worker serves the fleet as before.
	spec := failureSpec()
	spec.Benchmarks = []string{"gzip"}
	rs, err := cl.Run(ctx, spec)
	if err != nil || !rs.Complete() {
		t.Fatalf("campaign after registry loss: %v", err)
	}
	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_workers_registered_total"); got != 2 {
		t.Errorf("admissions = %g, want 2 (the first poll, and the first after the wipe)", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_remote_total"); got != 2 {
		t.Errorf("remote jobs = %g, want 2 — the rejoined worker must serve the fleet", got)
	}
}

// TestWorkerLeavesDuringParkedPoll: a worker's DELETE ends the lease
// poll it has parked with a 204, and that poll does not bring the
// worker back: a poll admits its worker when it arrives, never when it
// wakes.
func TestWorkerLeavesDuringParkedPoll(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1, LeaseTTL: time.Minute, WorkerTTL: time.Minute})
	ctx := context.Background()
	api := worker.NewAPI(cl.Base)
	const id = "leaver"
	type poll struct {
		ok  bool
		err error
	}
	parked := make(chan poll, 1)
	go func() {
		_, ok, err := api.Lease(ctx, worker.LeaseRequest{WorkerID: id, WaitMS: 20_000})
		parked <- poll{ok, err}
	}()
	waitMetric(t, cl, "sdiqd_workers_connected", 1)
	if err := api.Deregister(ctx, id); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-parked:
		if p.ok || p.err != nil {
			t.Errorf("the parked poll answered ok %v, err %v; want 204", p.ok, p.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked poll outlived its worker's DELETE by 10 s")
	}
	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_workers_connected"); got != 0 {
		t.Errorf("workers connected = %g after the DELETE, want 0: the parked poll brought its worker back", got)
	}
	if got := metricValue(t, text, "sdiqd_workers_registered_total"); got != 1 {
		t.Errorf("admissions = %g, want 1", got)
	}
}

// TestWorkerPollEndsAtClose: a lease poll parked on an empty queue
// answers 204 once the server closes, so an HTTP shutdown (cmd/sdiqd
// closes the server as it begins) does not wait the poll out.
func TestWorkerPollEndsAtClose(t *testing.T) {
	s, cl := startServer(t, Config{Workers: 1, LeaseTTL: time.Minute, WorkerTTL: time.Minute})
	api := worker.NewAPI(cl.Base)
	type poll struct {
		ok  bool
		err error
	}
	parked := make(chan poll, 1)
	go func() {
		_, ok, err := api.Lease(context.Background(), worker.LeaseRequest{WorkerID: "idle", WaitMS: 20_000})
		parked <- poll{ok, err}
	}()
	waitMetric(t, cl, "sdiqd_workers_connected", 1)
	s.Close()
	select {
	case p := <-parked:
		if p.ok || p.err != nil {
			t.Errorf("the parked poll answered ok %v, err %v; want 204", p.ok, p.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked poll outlived the server's Close by 5 s")
	}
}

// TestWorkerPollRefused: the server answers a lease poll in another
// protocol version, or from an ID outside the name grammar, with 400,
// and admits no worker.
func TestWorkerPollRefused(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1})
	api := worker.NewAPI(cl.Base)
	for _, req := range []worker.LeaseRequest{
		{WorkerID: "w1", Protocol: worker.ProtocolVersion - 1},
		{WorkerID: "../w1"},
		{WorkerID: ""},
	} {
		if _, _, err := api.Lease(context.Background(), req); wire.StatusCode(err) != http.StatusBadRequest {
			t.Errorf("poll %+v: %v, want 400", req, err)
		}
	}
	if got := metricValue(t, fetchMetrics(t, cl), "sdiqd_workers_registered_total"); got != 0 {
		t.Errorf("admissions = %g, want 0", got)
	}
}
