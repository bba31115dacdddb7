// Identity-layer tests: the bearer-token matrix over every route, the
// client-identity fallback bugs (shared NAT quota bucket, path-traversal
// client names), ownership scoping, per-tenant namespacing, quota
// accounting across crash recovery, and the restarted-coordinator
// zombie-upload scenario. Like the failure suite, the acceptance oracle
// is byte-identity: an authenticated remote run must export exactly what
// a local run produces.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/wire"
	"repro/internal/worker"
)

const (
	tokAlice = "secret-alice"
	tokBob   = "secret-bob"
	tokFleet = "secret-fleet"
)

// testAuth is the standing cast: two tenants and one worker credential.
func testAuth(t *testing.T) *auth.Authenticator {
	t.Helper()
	a, err := auth.New([]auth.Token{
		{Token: tokAlice, Principal: "alice", Role: auth.RoleTenant},
		{Token: tokBob, Principal: "bob", Role: auth.RoleTenant},
		{Token: tokFleet, Principal: "fleet", Role: auth.RoleWorker},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// rawStatus issues one bare HTTP request with an optional Authorization
// header and returns the status code.
func rawStatus(t *testing.T, base, method, path, authz string, body []byte) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if authz != "" {
		req.Header.Set("Authorization", authz)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode == http.StatusUnauthorized && resp.Header.Get("WWW-Authenticate") == "" {
		t.Errorf("%s %s: 401 without WWW-Authenticate challenge", method, path)
	}
	return resp.StatusCode
}

// TestAuthMatrix drives every route through {no token, malformed
// header, unknown token, wrong-role token, valid token}: the /v1/*
// surface must answer 401/403 for every bad credential and never
// auth-refuse a valid one; /metrics takes any valid token or none;
// /healthz stays open.
func TestAuthMatrix(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2, Auth: testAuth(t)})
	base := cl.Base
	ckptKey := strings.Repeat("ab", 32)

	routes := []struct {
		method, path string
		role         auth.Role
	}{
		{http.MethodPost, "/v1/campaigns", auth.RoleTenant},
		{http.MethodGet, "/v1/campaigns", auth.RoleTenant},
		{http.MethodGet, "/v1/campaigns/c0001", auth.RoleTenant},
		{http.MethodGet, "/v1/campaigns/c0001/events", auth.RoleTenant},
		{http.MethodGet, "/v1/campaigns/c0001/events?format=sse", auth.RoleTenant},
		{http.MethodGet, "/v1/campaigns/c0001/export", auth.RoleTenant},
		{http.MethodDelete, "/v1/campaigns/c0001", auth.RoleTenant},
		{http.MethodDelete, "/v1/workers/w1", auth.RoleWorker},
		{http.MethodPost, "/v1/leases", auth.RoleWorker},
		{http.MethodPost, "/v1/leases/l1/heartbeat", auth.RoleWorker},
		{http.MethodPost, "/v1/leases/l1/result", auth.RoleWorker},
		{http.MethodGet, "/v1/checkpoints/" + ckptKey, auth.RoleWorker},
		{http.MethodPut, "/v1/checkpoints/" + ckptKey, auth.RoleWorker},
	}
	tokenOf := map[auth.Role]string{auth.RoleTenant: tokAlice, auth.RoleWorker: tokFleet}
	wrongOf := map[auth.Role]string{auth.RoleTenant: tokFleet, auth.RoleWorker: tokAlice}

	for _, rt := range routes {
		if got := rawStatus(t, base, rt.method, rt.path, "", nil); got != http.StatusUnauthorized {
			t.Errorf("%s %s no token = %d, want 401", rt.method, rt.path, got)
		}
		if got := rawStatus(t, base, rt.method, rt.path, "Basic notbearer", nil); got != http.StatusUnauthorized {
			t.Errorf("%s %s malformed header = %d, want 401", rt.method, rt.path, got)
		}
		if got := rawStatus(t, base, rt.method, rt.path, "Bearer no-such-token", nil); got != http.StatusUnauthorized {
			t.Errorf("%s %s unknown token = %d, want 401", rt.method, rt.path, got)
		}
		if got := rawStatus(t, base, rt.method, rt.path, "Bearer "+wrongOf[rt.role], nil); got != http.StatusForbidden {
			t.Errorf("%s %s wrong-role token = %d, want 403", rt.method, rt.path, got)
		}
		if got := rawStatus(t, base, rt.method, rt.path, "Bearer "+tokenOf[rt.role], nil); got == http.StatusUnauthorized || got == http.StatusForbidden {
			t.Errorf("%s %s valid token = %d, want not 401/403", rt.method, rt.path, got)
		}
	}

	// /metrics: open without a token, 401 on a presented-bad one, fine
	// with either role.
	if got := rawStatus(t, base, http.MethodGet, "/metrics", "", nil); got != http.StatusOK {
		t.Errorf("GET /metrics no token = %d, want 200", got)
	}
	if got := rawStatus(t, base, http.MethodGet, "/metrics", "Bearer no-such-token", nil); got != http.StatusUnauthorized {
		t.Errorf("GET /metrics bad token = %d, want 401", got)
	}
	for _, tok := range []string{tokAlice, tokFleet} {
		if got := rawStatus(t, base, http.MethodGet, "/metrics", "Bearer "+tok, nil); got != http.StatusOK {
			t.Errorf("GET /metrics with valid token = %d, want 200", got)
		}
	}
	if got := rawStatus(t, base, http.MethodGet, "/healthz", "", nil); got != http.StatusOK {
		t.Errorf("GET /healthz = %d, want 200", got)
	}

	// Every refusal above must have been counted.
	if v := metricValue(t, fetchMetrics(t, cl), "sdiqd_auth_failures_total"); v < float64(4*len(routes)) {
		t.Errorf("sdiqd_auth_failures_total = %g, want >= %d", v, 4*len(routes))
	}
}

// TestAuthEndToEnd is the acceptance gate for the identity layer: a
// fully authenticated fleet — tenant client, worker, checkpoint
// shipping — runs a sampled sweep byte-identical to a local run, and
// identity comes from the token, never the spoofable header.
func TestAuthEndToEnd(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:  t.TempDir(),
		CkptDir:   t.TempDir(),
		Workers:   2,
		LeaseTTL:  2 * time.Second,
		WorkerTTL: 60 * time.Second,
		Auth:      testAuth(t),
	})
	ctx := context.Background()
	spec := sampledSpec("authed-fleet", []string{"gzip"}, 48, 80)

	cl.Token = tokAlice
	cl.ID = "mallory" // the spoof header must lose to the principal
	startWorker(t, cl.Base, "authed", 1, func(w *worker.Worker) {
		w.Token = tokFleet
		w.Ckpt = t.TempDir()
	})
	waitMetric(t, cl, "sdiqd_workers_connected", 1)

	rs, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var remoteCSV bytes.Buffer
	if err := rs.WriteCSV(&remoteCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteCSV.Bytes(), localCSV(t, spec)) {
		t.Error("authenticated remote run is not byte-identical to a local run")
	}
	if v := metricValue(t, fetchMetrics(t, cl), "sdiqd_jobs_remote_total"); v != 4 {
		t.Errorf("sdiqd_jobs_remote_total = %g, want 4 — the authed worker must run the grid", v)
	}

	s.mu.Lock()
	owner := s.order.Front().Value.(*campaignRun).client
	s.mu.Unlock()
	if owner != "alice" {
		t.Errorf("campaign owner = %q, want the authenticated principal %q (header spoof must lose)", owner, "alice")
	}
}

// TestOwnershipScoping: with auth on, a tenant sees only its own
// campaigns — list is filtered and every by-ID route answers 404 for
// another tenant's campaign, including DELETE.
func TestOwnershipScoping(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2, Auth: testAuth(t)})
	ctx := context.Background()
	alice := NewClient(cl.Base)
	alice.Token = tokAlice
	bob := NewClient(cl.Base)
	bob.Token = tokBob

	if _, err := alice.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	var infos []CampaignInfo
	listAs := func(c *Client) []CampaignInfo {
		t.Helper()
		var out []CampaignInfo
		if _, err := c.conn().Call(ctx, http.MethodGet, "/v1/campaigns", nil, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if infos = listAs(alice); len(infos) != 1 {
		t.Fatalf("alice sees %d campaigns, want 1", len(infos))
	}
	id := infos[0].ID
	if got := listAs(bob); len(got) != 0 {
		t.Errorf("bob sees %d of alice's campaigns, want 0", len(got))
	}
	if _, err := bob.Status(ctx, id); wire.StatusCode(err) != http.StatusNotFound {
		t.Errorf("bob status of alice's campaign: %v, want 404", err)
	}
	if _, err := bob.Export(ctx, id, "csv"); wire.StatusCode(err) != http.StatusNotFound {
		t.Errorf("bob export of alice's campaign: %v, want 404", err)
	}
	if err := bob.Delete(ctx, id); wire.StatusCode(err) != http.StatusNotFound {
		t.Errorf("bob delete of alice's campaign: %v, want 404", err)
	}
	if err := alice.Delete(ctx, id); err != nil {
		t.Errorf("alice delete of her own campaign: %v", err)
	}
}

// TestTenantIsolation: two tenants running the identical sampled spec
// under -tenant-isolation must each pay for their own simulations and
// never share a cache or checkpoint artifact — the store accounting
// proves the namespaces are disjoint.
func TestTenantIsolation(t *testing.T) {
	ckptDir := t.TempDir()
	s, cl := startServer(t, Config{
		CacheDir:        t.TempDir(),
		CkptDir:         ckptDir,
		Workers:         2,
		Auth:            testAuth(t),
		TenantIsolation: true,
	})
	ctx := context.Background()
	spec := sampledSpec("isolation", []string{"gzip"}, 48)
	want := localCSV(t, spec)

	runAs := func(token string) {
		t.Helper()
		c := NewClient(cl.Base)
		c.Token = token
		rs, err := c.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rs.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Error("isolated tenant run is not byte-identical to a local run")
		}
	}
	runAs(tokAlice)
	execAfterAlice := s.met.jobsExecuted.Load()
	runAs(tokBob)

	// Bob's identical grid must simulate again: a shared cache would
	// have answered it for free with alice's results.
	if exec := s.met.jobsExecuted.Load(); exec != 2*execAfterAlice {
		t.Errorf("jobs executed = %d after both tenants, want %d (no cross-tenant result sharing)",
			exec, 2*execAfterAlice)
	}
	// Store accounting: there is no shared namespace, each tenant holds
	// its own artifacts, and every artifact on disk is under tenants/.
	if s.shared != nil {
		t.Error("isolated server has a shared namespace")
	}
	for _, tenant := range []string{"alice", "bob"} {
		st := s.tenant(tenant).ns.ckpt
		if st == nil {
			t.Fatalf("tenant %s has no checkpoint store", tenant)
		}
		if n, _ := st.DiskStat(); n != 2 {
			t.Errorf("tenant %s has %d artifacts, want 2 (one per warm class)", tenant, n)
		}
	}
	filepath.WalkDir(ckptDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".ckpt") &&
			!strings.HasPrefix(path, filepath.Join(ckptDir, "tenants")+string(filepath.Separator)) {
			t.Errorf("artifact %s outside every tenant's namespace", path)
		}
		return nil
	})
	// And the metrics count every tenant's store: the unlabelled
	// checkpoint rows sum the namespaces, and the per-tenant rows exist
	// with the right counts.
	text := fetchMetrics(t, cl)
	for _, name := range []string{"sdiqd_ckpt_generated_total", "sdiqd_ckpt_artifacts"} {
		if v := metricValue(t, text, name); v != 4 {
			t.Errorf("%s = %g, want 4 (2 per tenant)", name, v)
		}
	}
	for _, tenant := range []string{"alice", "bob"} {
		row := fmt.Sprintf(`sdiqd_tenant_campaigns_done_total{tenant=%q} 1`, tenant)
		if !strings.Contains(text, row) {
			t.Errorf("metrics missing %s", row)
		}
	}
}

// TestWorkerIsolatesTenants: under -tenant-isolation one worker keeps a
// result cache and a checkpoint store per tenant, so one tenant's work
// never answers another's lease. Alice sweeps gzip at IQ 48, then bob
// at IQ 48 and 64, on one worker with its own -scratch and -ckpt: bob's
// IQ-48 cells simulate again and publish their warm state to bob's
// namespace, as alice's did to hers, the worker runs every job, and
// both exports match a local run. The worker runs two jobs at once, so
// a tenant's stores may be opened by two leases together.
func TestWorkerIsolatesTenants(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:        t.TempDir(),
		CkptDir:         t.TempDir(),
		Workers:         1,
		Auth:            testAuth(t),
		TenantIsolation: true,
		LeaseTTL:        time.Minute,
		WorkerTTL:       time.Minute,
	})
	startWorker(t, cl.Base, "shared", 2, func(w *worker.Worker) {
		w.Token = tokFleet
		w.Ckpt = t.TempDir()
	})
	waitMetric(t, cl, "sdiqd_workers_connected", 1)
	runAs := func(token string, iq ...int) {
		t.Helper()
		spec := sampledSpec("worker-isolation", []string{"gzip"}, iq...)
		c := NewClient(cl.Base)
		c.Token = token
		rs, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvOf(t, rs), localCSV(t, spec)) {
			t.Errorf("the isolated sweep at IQ %v is not byte-identical to a local run", iq)
		}
	}
	runAs(tokAlice, 48)
	runAs(tokBob, 48, 64)

	for _, tenant := range []string{"alice", "bob"} {
		if n, _ := s.tenant(tenant).ns.ckpt.DiskStat(); n != 2 {
			t.Errorf("tenant %s's namespace holds %d artifacts, want 2", tenant, n)
		}
	}
	if got := metricValue(t, fetchMetrics(t, cl), "sdiqd_jobs_local_total"); got != 0 {
		t.Errorf("local jobs = %g, want 0: the worker runs every job", got)
	}
}

// TestArtifactFollowsItsLease: under -tenant-isolation, alice's and
// bob's identical sampled cells share one checkpoint key. An artifact
// request names a live lease that carries its key, and reads or writes
// the namespace of the campaign that lease serves: pushed under alice's
// lease after bob's cell was leased too, the artifact is alice's and
// not bob's.
func TestArtifactFollowsItsLease(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:        t.TempDir(),
		CkptDir:         t.TempDir(),
		Workers:         1,
		Auth:            testAuth(t),
		TenantIsolation: true,
		LeaseTTL:        time.Minute,
		WorkerTTL:       time.Minute,
	})
	ctx := context.Background()
	api := worker.NewAPI(cl.Base)
	api.Token = tokFleet
	const fleet = "fleet"
	join(t, api, fleet)
	spec := sampledSpec("lease-scope", []string{"gzip"}, 48)
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	leaseAs := func(token string) worker.Lease {
		t.Helper()
		c := NewClient(cl.Base)
		c.Token = token
		if _, err := c.Submit(ctx, spec); err != nil {
			t.Fatal(err)
		}
		for {
			l, ok, err := api.Lease(ctx, worker.LeaseRequest{WorkerID: fleet, WaitMS: 2000})
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return l
			}
		}
	}
	la, lb := leaseAs(tokAlice), leaseAs(tokBob)
	key := la.CkptKey
	if key == "" || lb.CkptKey != key {
		t.Fatalf("checkpoint keys %q and %q, want one shared key", key, lb.CkptKey)
	}

	side, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cw, err := side.Create(key, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Commit(ckpt.Trailer{TotalReal: 1000}); err != nil {
		t.Fatal(err)
	}
	artifact, err := side.ReadRaw(key)
	if err != nil {
		t.Fatal(err)
	}
	call := func(method string, l worker.Lease, key string, body []byte) int {
		t.Helper()
		return rawStatus(t, cl.Base, method, "/v1/checkpoints/"+key+"?lease="+l.ID, "Bearer "+tokFleet, body)
	}

	if code := call(http.MethodPut, la, key, artifact); code != http.StatusNoContent {
		t.Fatalf("PUT under alice's lease = %d, want 204", code)
	}
	if !s.tenant("alice").ns.ckpt.Has(key) {
		t.Error("the artifact pushed under alice's lease is not in alice's store")
	}
	if s.tenant("bob").ns.ckpt.Has(key) {
		t.Error("the artifact pushed under alice's lease landed in bob's store")
	}
	if code := call(http.MethodGet, la, key, nil); code != http.StatusOK {
		t.Errorf("GET under alice's lease = %d, want 200", code)
	}
	if code := call(http.MethodGet, lb, key, nil); code != http.StatusNotFound {
		t.Errorf("GET under bob's lease = %d, want 404: bob's store has no artifact", code)
	}

	// A key the named lease does not carry is out of reach, and so is
	// every key once the lease is gone.
	other := strings.Repeat("ab", 32)
	if code := call(http.MethodPut, la, other, artifact); code != http.StatusForbidden {
		t.Errorf("PUT of a key alice's lease does not carry = %d, want 403", code)
	}
	if code := call(http.MethodGet, la, other, nil); code != http.StatusNotFound {
		t.Errorf("GET of a key alice's lease does not carry = %d, want 404", code)
	}
	if _, err := api.Complete(ctx, la.ID, worker.ResultUpload{WorkerID: fleet, Key: la.Key, Error: "dropped"}); err != nil {
		t.Fatal(err)
	}
	if code := call(http.MethodGet, la, key, nil); code != http.StatusNotFound {
		t.Errorf("GET under alice's finished lease = %d, want 404", code)
	}
	if code := call(http.MethodPut, la, key, artifact); code != http.StatusForbidden {
		t.Errorf("PUT under alice's finished lease = %d, want 403", code)
	}
}

// TestClientOfFallbackIncludesPort pins the NAT-bucket bug: with auth
// off and no header, two clients behind one address (same host,
// different source ports) must land in different quota buckets, and a
// header that fails the name grammar is an error, not an identity.
func TestClientOfFallbackIncludesPort(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	at := func(remote, header string) (string, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/campaigns", nil)
		r.RemoteAddr = remote
		if header != "" {
			r.Header.Set("X-Sdiq-Client", header)
		}
		return s.clientOf(r)
	}
	id1, err1 := at("10.1.2.3:4444", "")
	id2, err2 := at("10.1.2.3:5555", "")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if id1 == id2 {
		t.Errorf("two ports behind one address share identity %q — the NAT quota bucket bug", id1)
	}
	for id, port := range map[string]string{id1: "4444", id2: "5555"} {
		if !strings.Contains(id, port) || !auth.ValidName(id) {
			t.Errorf("fallback identity %q: want a valid name containing port %s", id, port)
		}
	}
	if got, err := at("10.1.2.3:4444", "alice"); err != nil || got != "alice" {
		t.Errorf("header identity = %q, %v; want alice", got, err)
	}
	if _, err := at("10.1.2.3:4444", "../../etc"); err == nil {
		t.Error("path-traversal client header accepted")
	}
	if out := sanitizeClient("[::1]:8080"); !auth.ValidName(out) {
		t.Errorf("sanitizeClient of IPv6 address %q is not a valid name", out)
	}
}

// TestSubmitRejectsInvalidClientHeader is the path-traversal regression
// over the wire: a client ID that could escape the tenant namespace is
// refused at submission, not folded into quota maps or cache paths.
func TestSubmitRejectsInvalidClientHeader(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 1})
	ctx := context.Background()
	cl.ID = "../../etc"
	if _, err := cl.Submit(ctx, tinySpec()); wire.StatusCode(err) != http.StatusBadRequest {
		t.Errorf("submit with traversal client ID: %v, want 400", err)
	}
	cl.ID = "alice"
	if _, err := cl.Submit(ctx, tinySpec()); err != nil {
		t.Errorf("submit with valid client ID: %v", err)
	}
}

// TestQuotaSurvivesRecovery audits the quota ledger across the crash
// paths: a recovered unfinished campaign occupies its owner's quota
// slot from the instant the server is up, and releases it exactly once
// when it finishes — no leaked slot that would lock the tenant out, no
// double-free that would let it exceed the cap.
func TestQuotaSurvivesRecovery(t *testing.T) {
	ctx := context.Background()
	state, cache := t.TempDir(), t.TempDir()
	cfg := Config{CacheDir: cache, StateDir: state, Workers: 1, QuotaPerClient: 1}

	s1, cl := startServer(t, cfg)
	cl.ID = "alice"
	// While a worker is live the slot leaves it the queue, and this one
	// runs the first job and holds the second until the test ends, so
	// the kill lands mid-campaign.
	var leases atomic.Int32
	startWorker(t, cl.Base, "holder", 1, func(w *worker.Worker) {
		w.OnLease = func(worker.Lease) {
			if leases.Add(1) == 2 {
				<-t.Context().Done()
			}
		}
	})
	waitMetric(t, cl, "sdiqd_workers_connected", 1)
	if _, err := cl.Submit(ctx, failureSpec()); err != nil {
		t.Fatal(err)
	}
	// Crash mid-campaign, with real progress on disk.
	waitMetric(t, cl, "sdiqd_jobs_executed_total", 1)
	killServer(s1)

	s2 := New(cfg)
	defer s2.Close()
	submitAs := func(client string) int {
		t.Helper()
		blob, err := json.Marshal(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(blob))
		req.Header.Set("X-Sdiq-Client", client)
		s2.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	// The recovered campaign holds alice's only slot the moment New
	// returns (recover() increments synchronously, before the re-run
	// can possibly finish its remaining cache-missed jobs)...
	if code := submitAs("alice"); code != http.StatusTooManyRequests {
		t.Errorf("submit at quota during recovery = %d, want 429", code)
	}
	// ...but no one else's.
	if code := submitAs("bob"); code != http.StatusAccepted {
		t.Errorf("other client's submit during recovery = %d, want 202", code)
	}

	waitIdle := func() {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for s2.met.campaignsActive.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("campaigns never drained")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitIdle()
	// The slot came back — exactly once.
	if code := submitAs("alice"); code != http.StatusAccepted {
		t.Errorf("submit after recovered campaign finished = %d, want 202", code)
	}
	waitIdle()
	s2.tmu.Lock()
	for client, ts := range s2.tenants {
		if ts.active != 0 {
			t.Errorf("client %q holds %d quota slots after all campaigns finished", client, ts.active)
		}
	}
	s2.tmu.Unlock()
}

// TestStaleUploadAcrossRestartRejected pins the zombie-upload hole: a
// restarted coordinator must never reissue lease IDs, so a late upload
// carrying a pre-restart lease — even for a JobKey that is
// legitimately leased again right now — is answered 410 and discarded,
// not accepted into the new boot's campaign.
func TestStaleUploadAcrossRestartRejected(t *testing.T) {
	ctx := context.Background()
	cfg := Config{
		Workers:   1,
		LeaseTTL:  30 * time.Second,
		WorkerTTL: 60 * time.Second,
	}
	cfg.CacheDir = t.TempDir()
	s1, hs1, addr := serverAt(t, "127.0.0.1:0", cfg)
	base := "http://" + addr

	api1 := worker.NewAPI(base)
	const zombie = "zombie"
	join(t, api1, zombie)
	if _, err := NewClient(base).Submit(ctx, failureSpec()); err != nil {
		t.Fatal(err)
	}
	l1, ok, err := api1.Lease(ctx, worker.LeaseRequest{WorkerID: zombie, WaitMS: 10_000})
	if err != nil || !ok {
		t.Fatalf("first boot lease: ok=%v err=%v", ok, err)
	}
	// The coordinator dies with the lease checked out; the worker
	// vanishes without uploading.
	hs1.Close()
	killServer(s1)
	// Drop pooled keep-alive connections from the first boot: the dead
	// sockets would otherwise answer the next POST with an EOF (a real
	// worker's retry loop absorbs this; these raw calls don't).
	http.DefaultClient.CloseIdleConnections()

	cfg.CacheDir = t.TempDir() // fresh cache: the re-run must lease again
	s2, _, _ := serverAt(t, addr, cfg)
	api2 := worker.NewAPI(base)
	const fresh = "fresh"
	join(t, api2, fresh)
	if _, err := NewClient(base).Submit(ctx, failureSpec()); err != nil {
		t.Fatal(err)
	}
	l2, ok, err := api2.Lease(ctx, worker.LeaseRequest{WorkerID: fresh, WaitMS: 30_000})
	if err != nil || !ok {
		t.Fatalf("second boot lease: ok=%v err=%v", ok, err)
	}
	if l2.ID == l1.ID {
		t.Errorf("restarted coordinator reissued lease ID %q", l1.ID)
	}

	// The zombie fires its pre-restart upload, crafted to pass identity
	// validation if the IDs were ever allowed to collide.
	up := worker.ResultUpload{
		WorkerID: zombie,
		Key:      l1.Key,
		Result:   &campaign.Result{Bench: l1.Job.Bench, Tech: l1.Job.Tech},
	}
	if _, err := api1.Complete(ctx, l1.ID, up); !errors.Is(err, worker.ErrLeaseGone) {
		t.Fatalf("stale upload across restart: err = %v, want ErrLeaseGone (410)", err)
	}
	if v := s2.met.lateUploads.Load(); v != 1 {
		t.Errorf("late uploads = %d, want 1", v)
	}
	if v := s2.met.jobsRemote.Load(); v != 0 {
		t.Errorf("jobs remote = %d, want 0 — the zombie result must not have been accepted", v)
	}
}
