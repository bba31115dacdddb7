package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// tinySpec is a fast two-job campaign for API tests.
func tinySpec() campaign.Spec {
	spec := campaign.DefaultSpec(4_000)
	spec.Name = "tiny"
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	return spec
}

// startServer spins up a Server over httptest and tears both down with
// the test. Teardown waits for the campaign goroutines: Close only
// cancels them, and one still writing its result cache would race the
// removal of the test's temp dirs.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		s.wg.Wait()
		ts.Close()
	})
	return s, NewClient(ts.URL)
}

// TestServiceEndToEnd is the happy path: submit, stream events, export
// — and the server-side CSV export must be byte-identical to the same
// spec run locally through the engine.
func TestServiceEndToEnd(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	spec := tinySpec()

	var events []Event
	cl.OnEvent = func(ev Event) { events = append(events, ev) }
	rs, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Complete() || len(rs.Results) != 2 {
		t.Fatalf("remote campaign incomplete: %d results", len(rs.Results))
	}

	if len(events) < 2 {
		t.Fatalf("saw %d events, want at least submitted+done", len(events))
	}
	if events[0].Type != EventSubmitted {
		t.Errorf("first event %q, want submitted", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != EventDone || last.Error != "" {
		t.Errorf("last event %+v, want clean done", last)
	}
	if last.Status == nil || last.Status.Done != 2 {
		t.Errorf("done event status %+v, want 2 done", last.Status)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d; replay must be gapless and ordered", i, ev.Seq)
		}
	}

	// Server-side CSV export vs the same spec run locally.
	sub := events[0].Campaign
	remoteCSV, err := cl.Export(ctx, sub, "csv")
	if err != nil {
		t.Fatal(err)
	}
	local, err := (&campaign.Engine{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var localCSV bytes.Buffer
	if err := local.WriteCSV(&localCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteCSV, localCSV.Bytes()) {
		t.Errorf("server CSV export differs from local run:\nremote:\n%s\nlocal:\n%s",
			remoteCSV, localCSV.String())
	}
}

// TestServiceStatusAndList covers the read-side endpoints.
func TestServiceStatusAndList(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir()})
	ctx := context.Background()
	sub, err := cl.Submit(ctx, tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Jobs != 2 || sub.ID == "" {
		t.Fatalf("submission %+v", sub)
	}
	// Wait for completion by polling status (exercising that endpoint).
	var info CampaignInfo
	deadline := time.Now().Add(30 * time.Second)
	for !info.Done {
		if time.Now().After(deadline) {
			t.Fatal("campaign never finished")
		}
		if info, err = cl.Status(ctx, sub.ID); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info.Error != "" || info.Status.Done != 2 || len(info.Status.Jobs) != 2 {
		t.Errorf("status %+v", info)
	}
	for _, js := range info.Status.Jobs {
		if js.State != campaign.JobDone || js.IPC <= 0 {
			t.Errorf("job %+v", js)
		}
	}

	resp, err := cl.conn().Send(ctx, http.MethodGet, "/v1/campaigns", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []CampaignInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sub.ID || len(list[0].Status.Jobs) != 0 {
		t.Errorf("list %+v (per-job detail belongs to the status endpoint only)", list)
	}
}

// TestServiceErrors covers the API's refusals: unknown campaigns,
// malformed and empty specs, exports of unfinished campaigns, failed
// campaigns surfacing their error.
func TestServiceErrors(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 1})
	ctx := context.Background()

	if _, err := cl.Status(ctx, "c9999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing campaign: %v", err)
	}
	if _, err := cl.Export(ctx, "c9999", "csv"); err == nil {
		t.Error("export of missing campaign succeeded")
	}

	resp, err := http.Post(cl.Base+"/v1/campaigns", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec: %d, want 400", resp.StatusCode)
	}

	bad := tinySpec()
	bad.Techniques = []campaign.Technique{"quantum"}
	if _, err := cl.Submit(ctx, bad); err == nil {
		t.Error("unknown technique accepted")
	}

	// A campaign whose jobs fail must finish done with an error, and Run
	// must surface it.
	failing := tinySpec()
	failing.Benchmarks = []string{"nosuchbench"}
	if _, err := cl.Run(ctx, failing); err == nil || !strings.Contains(err.Error(), "nosuchbench") {
		t.Errorf("failed campaign error = %v", err)
	}

	// Export while running → 409. A fat campaign on one worker stays
	// running long enough to observe.
	slow := campaign.DefaultSpec(2_000_000)
	slow.Benchmarks = []string{"gzip"}
	slow.Techniques = []campaign.Technique{campaign.TechBaseline}
	sub, err := cl.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Export(ctx, sub.ID, "csv"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("export of running campaign: %v, want 409", err)
	}
	s.Close() // cancel the slow campaign rather than waiting it out
}

// TestServiceQuota: a client at its active-campaign quota is refused
// with 429 until one finishes; other clients are unaffected.
func TestServiceQuota(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 1, QuotaPerClient: 1})
	ctx := context.Background()
	cl.ID = "alice"

	slow := campaign.DefaultSpec(2_000_000)
	slow.Benchmarks = []string{"gzip"}
	slow.Techniques = []campaign.Technique{campaign.TechBaseline}
	sub, err := cl.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, tinySpec()); err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("over-quota submit: %v, want 429", err)
	}
	bob := NewClient(cl.Base)
	bob.ID = "bob"
	if _, err := bob.Submit(ctx, tinySpec()); err != nil {
		t.Errorf("other client rejected: %v", err)
	}
	// Once alice's campaign finishes her quota frees up.
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := cl.Status(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow campaign never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := cl.Submit(ctx, tinySpec()); err != nil {
		t.Errorf("post-completion submit rejected: %v", err)
	}
}

// TestSlotsBoundConcurrency: with no fleet, Config.Workers bounds how
// many jobs the coordinator simulates at once, across campaigns. Two
// clients run concurrent campaigns over disjoint cells on one slot, so
// no two executions may overlap in time.
func TestSlotsBoundConcurrency(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 1})
	ctx := context.Background()
	specs := []campaign.Spec{failureSpec(), failureSpec()}
	specs[1].Seed++ // disjoint cells: nothing is shared or cached
	results := make([][]campaign.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(cl.Base)
			c.ID = fmt.Sprintf("client-%d", i)
			rs, err := c.Run(ctx, spec)
			if err == nil {
				results[i] = rs.Results
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	var runs []campaign.Result
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("campaign %d: %v", i, errs[i])
		}
		runs = append(runs, results[i]...)
	}
	if got := metricValue(t, fetchMetrics(t, cl), "sdiqd_jobs_executed_total"); got != float64(len(runs)) {
		t.Fatalf("executed %g of %d jobs", got, len(runs))
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].StartedAt.Before(runs[b].StartedAt) })
	for i := 1; i < len(runs); i++ {
		if prev, r := runs[i-1], runs[i]; r.StartedAt.Before(prev.FinishedAt) {
			t.Errorf("%s/%s ran %v-%v, overlapping %s/%s at %v-%v on one slot",
				r.Bench, r.Tech, r.StartedAt, r.FinishedAt, prev.Bench, prev.Tech, prev.StartedAt, prev.FinishedAt)
		}
	}
}

// TestServiceDrain: draining refuses new campaigns with 503 while
// running ones finish; Drain returns once they have.
func TestServiceDrain(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	if _, err := cl.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain of idle server: %v", err)
	}
	if _, err := cl.Submit(ctx, tinySpec()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("submit to draining server: %v, want 503", err)
	}
}

// TestServiceSSE: the event stream in SSE framing carries the same
// events.
func TestServiceSSE(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir()})
	ctx := context.Background()
	rs, err := cl.Run(ctx, tinySpec())
	if err != nil || !rs.Complete() {
		t.Fatal(err)
	}
	resp, err := cl.conn().Send(ctx, http.MethodGet, "/v1/campaigns/c0001/events?format=sse", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "event: submitted\n") || !strings.Contains(body, "event: done\n") {
		t.Errorf("SSE stream missing framing:\n%s", body)
	}
}

// metricValue digs one sample out of the Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// fetchMetrics grabs /metrics as text.
func fetchMetrics(t *testing.T, cl *Client) string {
	t.Helper()
	resp, err := cl.conn().Send(context.Background(), http.MethodGet, "/metrics", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServiceMetrics: after one executed campaign and one fully-cached
// re-run, the counters must add up.
func TestServiceMetrics(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	if _, err := cl.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	text := fetchMetrics(t, cl)
	if got := metricValue(t, text, "sdiqd_campaigns_submitted_total"); got != 2 {
		t.Errorf("submitted = %g, want 2", got)
	}
	if got := metricValue(t, text, "sdiqd_jobs_executed_total"); got != 2 {
		t.Errorf("executed = %g, want 2 (second run must be served, not simulated)", got)
	}
	served := metricValue(t, text, "sdiqd_job_cache_hits_total") +
		metricValue(t, text, "sdiqd_job_dedup_hits_total")
	if served != 2 {
		t.Errorf("cache+dedup = %g, want 2", served)
	}
	if got := metricValue(t, text, "sdiqd_insts_committed_total"); got < 2*4_000 {
		t.Errorf("insts committed = %g, want >= 8000", got)
	}
	if got := metricValue(t, text, "sdiqd_insts_per_second"); got <= 0 {
		t.Errorf("insts/s = %g, want positive", got)
	}
	if got := metricValue(t, text, "sdiqd_campaigns_active"); got != 0 {
		t.Errorf("active = %g, want 0", got)
	}
}

// TestServiceDeleteCampaign: DELETE drops a finished campaign from the
// registry — its id 404s afterwards and the registry entry (progress,
// event log, result set) is released — while running campaigns are
// refused with 409 and unknown ids with 404.
func TestServiceDeleteCampaign(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	ctx := context.Background()
	if _, err := cl.Run(ctx, tinySpec()); err != nil {
		t.Fatal(err)
	}
	sub := "c0001"
	if err := cl.Delete(ctx, sub); err != nil {
		t.Fatalf("delete finished campaign: %v", err)
	}
	// Gone from every read path.
	if _, err := cl.Status(ctx, sub); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("status after delete = %v, want 404", err)
	}
	if _, err := cl.Export(ctx, sub, "csv"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("export after delete = %v, want 404", err)
	}
	if err := cl.Delete(ctx, sub); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("double delete = %v, want 404", err)
	}
	// Registry memory actually released, not just hidden.
	s.mu.Lock()
	held, order := len(s.campaigns), s.order.Len()
	s.mu.Unlock()
	if held != 0 || order != 0 {
		t.Errorf("registry still holds %d campaigns / %d order entries after delete", held, order)
	}

	// A running campaign must be refused: deletion is GC, not cancel.
	slow := campaign.DefaultSpec(2_000_000)
	slow.Benchmarks = []string{"gzip"}
	slow.Techniques = []campaign.Technique{campaign.TechBaseline}
	sub2, err := cl.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, sub2.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("delete of running campaign = %v, want 409", err)
	}
	s.Close() // cancel the slow campaign rather than waiting it out

	if got := metricValue(t, fetchMetrics(t, cl), "sdiqd_campaigns_deleted_total"); got != 1 {
		t.Errorf("deleted = %g, want 1", got)
	}
}
