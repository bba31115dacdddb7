// The admission bound: a campaign over maxCampaignJobs is refused
// before its jobs are expanded, at submission and at recovery.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
	"repro/internal/wire"
)

// hugeSpec is the paper's evaluation swept over three axes of 30 values
// each: 11 benchmarks × 5 techniques × 27,000 points = 1,485,000 jobs
// from a body of about 1.6 KB.
func hugeSpec() campaign.Spec {
	spec := campaign.DefaultSpec(100_000)
	for _, name := range []string{"robsize", "lsqsize", "fetchqueuesize"} {
		ax := campaign.Axis{Name: name}
		for v := 1; v <= 30; v++ {
			ax.Values = append(ax.Values, 8*v)
		}
		spec.Axes = append(spec.Axes, ax)
	}
	return spec
}

// post submits body and returns the status code and error message.
func post(t *testing.T, cl *Client, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(cl.Base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr wire.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&apiErr)
	return resp.StatusCode, apiErr.Error
}

// TestSubmitRefusesHugeSpec: the 1,485,000-job spec is answered 413
// without expanding it — the request allocates under 10 MB in all.
func TestSubmitRefusesHugeSpec(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 1})
	spec := hugeSpec()
	if n, err := spec.JobCount(); err != nil || n != 1_485_000 {
		t.Fatalf("JobCount = %d, %v; want 1485000", n, err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	code, msg := post(t, cl, body)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	t.Logf("%d-byte spec: %d in %v, %d KB allocated", len(body), code, elapsed, (after.TotalAlloc-before.TotalAlloc)>>10)

	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge spec answered %d (%s), want 413", code, msg)
	}
	if !strings.Contains(msg, "1485000") {
		t.Errorf("refusal %q does not name the job count", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 10<<20 {
		t.Errorf("refusing the huge spec allocated %d bytes, want under 10 MB", grew)
	}
	if n := len(s.campaigns); n != 0 {
		t.Errorf("registry holds %d campaigns after the refusal", n)
	}
}

// TestSubmitBound: the bound is exact — maxCampaignJobs jobs are
// admitted (counted, not run: the campaign is never started here), one
// more is refused, and an axis product that overflows int is refused
// with a 4xx rather than wrapping to a small count.
func TestSubmitBound(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 1})
	axisSpec := func(lens ...int) []byte {
		spec := tinySpec()
		spec.Techniques = []campaign.Technique{campaign.TechBaseline}
		for _, n := range lens {
			ax := campaign.Axis{Name: "robsize", Values: make([]int, n)}
			for i := range ax.Values {
				ax.Values[i] = 64 + i
			}
			spec.Axes = append(spec.Axes, ax)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	if code, msg := post(t, cl, axisSpec(maxCampaignJobs+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-job spec answered %d (%s), want 413", maxCampaignJobs+1, code, msg)
	}
	// Five axes of 10,000 values: ~300 KB of JSON, 10^20 jobs.
	big := axisSpec(10_000, 10_000, 10_000, 10_000, 10_000)
	if code, msg := post(t, cl, big); code < 400 || code >= 500 {
		t.Errorf("overflowing spec (%d bytes) answered %d (%s), want a 4xx", len(big), code, msg)
	}

	spec := tinySpec()
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	spec.Axes = []campaign.Axis{{Name: "robsize", Values: make([]int, maxCampaignJobs)}}
	if _, err := admit(&spec); err != nil {
		t.Errorf("a spec of exactly %d jobs is refused: %v", maxCampaignJobs, err)
	}
}

// syncBuffer is a log destination safe to read while other goroutines
// log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRecoverSkipsOversizedCampaign: a durable record whose spec is
// over the bound (written by a build that admitted it), or whose
// terminal record holds results ReadJSON would refuse, is skipped at
// boot with a log line, and the campaigns beside it still recover.
func TestRecoverSkipsOversizedCampaign(t *testing.T) {
	state, cache := t.TempDir(), t.TempDir()
	st, err := store.Open(state)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	for _, m := range []store.Meta{
		{ID: "c0001", Submitted: now, Jobs: 1_485_000, Spec: hugeSpec()},
		{ID: "c0002", Submitted: now, Jobs: 2, Spec: tinySpec()},
		{ID: "c0003", Submitted: now, Jobs: 2, Spec: tinySpec()},
	} {
		if err := st.Create(m); err != nil {
			t.Fatal(err)
		}
	}
	bad := store.Snapshot{Done: true, Finished: now, Results: []campaign.Result{{Bench: "gzip", Tech: "nosuchtech"}}}
	if err := st.Finish("c0003", bad); err != nil {
		t.Fatal(err)
	}

	var logs syncBuffer
	prev := log.Writer()
	log.SetOutput(&logs)
	defer log.SetOutput(prev)
	s, cl := startServer(t, Config{CacheDir: cache, StateDir: state, Workers: 2})

	for _, line := range []string{
		"recover c0001: skipped: campaign too large",
		`recover c0003: skipped: campaign: load: result 0 has unknown technique "nosuchtech"`,
	} {
		if !strings.Contains(logs.String(), line) {
			t.Errorf("no log line %q; logged:\n%s", line, logs.String())
		}
	}
	for _, id := range []string{"c0001", "c0003"} {
		if _, err := cl.Status(context.Background(), id); wire.StatusCode(err) != http.StatusNotFound {
			t.Errorf("skipped campaign %s after recovery: status err = %v, want 404", id, err)
		}
	}
	if got := s.met.campaignsRecovered.Load(); got != 1 {
		t.Errorf("campaigns recovered = %d, want 1 (the small one)", got)
	}
	waitStatus(t, cl, "c0002", "done", func(info CampaignInfo) bool { return info.Done })
}

// TestBudgetBound: a budget over maxBudget is refused with 413 before
// anything starts, maxBudget itself is admitted, and recovery skips an
// over-budget record with the oversized campaign's log line.
func TestBudgetBound(t *testing.T) {
	state := t.TempDir()
	st, err := store.Open(state)
	if err != nil {
		t.Fatal(err)
	}
	over := tinySpec()
	over.Budget = maxBudget + 1
	if err := st.Create(store.Meta{ID: "c0001", Submitted: time.Now().UTC(), Jobs: 2, Spec: over}); err != nil {
		t.Fatal(err)
	}

	var logs syncBuffer
	prev := log.Writer()
	log.SetOutput(&logs)
	defer log.SetOutput(prev)
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), StateDir: state, Workers: 1})
	if !strings.Contains(logs.String(), "recover c0001: skipped: campaign too large") {
		t.Errorf("no log line for the over-budget record; logged:\n%s", logs.String())
	}

	body, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := post(t, cl, body); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "budget") {
		t.Errorf("budget %d answered %d (%s), want 413 naming the budget", over.Budget, code, msg)
	}
	if n := len(registered(s)); n != 0 {
		t.Errorf("registry holds %d campaigns after the refusals", n)
	}
	text := fetchMetrics(t, cl)
	for _, name := range []string{"sdiqd_campaigns_submitted_total", "sdiqd_campaigns_recovered_total", "sdiqd_jobs_executed_total"} {
		if v := metricValue(t, text, name); v != 0 {
			t.Errorf("%s = %g, want 0: nothing may start", name, v)
		}
	}

	exact := tinySpec()
	exact.Budget = maxBudget
	if _, err := admit(&exact); err != nil {
		t.Errorf("a budget of exactly %d is refused: %v", maxBudget, err)
	}
}
