// The registry's one way in (register: submission and recovery), its
// one way out (evict: DELETE and the bound on finished campaigns), and
// the bound itself, at its real value: each finished campaign is
// charged its jobs plus campaignFixedJobs. Synthetic finished campaigns
// fill the bound cheaply: they are tombstones, as recovery registers a
// failed campaign, so nothing re-runs them.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
	"repro/internal/wire"
)

// jobsSpec is a baseline campaign of n jobs: tinySpec's benchmark over
// n ROB sizes.
func jobsSpec(n int) campaign.Spec {
	spec := tinySpec()
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	ax := campaign.Axis{Name: "robsize", Values: make([]int, n)}
	for i := range ax.Values {
		ax.Values[i] = 64 + i
	}
	spec.Axes = []campaign.Axis{ax}
	return spec
}

// synthetic registers a campaign of spec's jobs as a submission does,
// with its durable records, but runs nothing. A finished one is a
// tombstone; a running one holds its slot until the test ends it with
// s.end.
func synthetic(t testing.TB, s *Server, spec campaign.Spec, finished bool) *campaignRun {
	t.Helper()
	if _, err := admit(&spec); err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	rc := &campaignRun{
		progress:  newProgress("", jobs),
		client:    "synthetic",
		name:      spec.Name,
		submitted: now,
		ns:        s.tenant("synthetic").ns,
		ended:     finished,
	}
	if err := s.register(rc, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Create(store.Meta{ID: rc.id, Client: rc.client, Submitted: now, Jobs: len(jobs), Spec: spec}); err != nil {
		t.Fatal(err)
	}
	rc.begin()
	if finished {
		fail := errors.New("synthetic")
		if err := s.store.Finish(rc.id, store.Snapshot{Done: true, Error: fail.Error(), Finished: now}); err != nil {
			t.Fatal(err)
		}
		rc.finish(now, nil, fail, nil)
	}
	return rc
}

// fillFinished registers finished synthetic campaigns of as many jobs
// as one may hold until they are charged exactly total.
func fillFinished(t testing.TB, s *Server, total int) {
	t.Helper()
	for total > 0 {
		n := min(total, charge(maxCampaignJobs)) - campaignFixedJobs
		synthetic(t, s, jobsSpec(n), true)
		total -= charge(n)
	}
}

// charged returns the finished campaigns' charge.
func charged(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finishedJobs
}

// registered lists the registry's campaign IDs in submission order.
func registered(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for e := s.order.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(*campaignRun).id)
	}
	return ids
}

// hasRecords reports whether a campaign's durable directory exists.
func hasRecords(t *testing.T, state, id string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(state, "campaigns", id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

// TestRegistryBoundAtFinish: finished campaigns registered while
// charged above maxFinishedJobs stay until a campaign finishes; then
// the oldest finished ones leave, in submission order, until the rest
// fit. A running campaign older than all of them stays, and so does the
// one that just finished, even when it is the oldest. Each leaver takes
// its durable records with it, counts once, and does not come back at
// restart.
func TestRegistryBoundAtFinish(t *testing.T) {
	ctx := context.Background()
	cfg := Config{CacheDir: t.TempDir(), CkptDir: t.TempDir(), StateDir: t.TempDir(), Workers: 2}
	s, cl := startServer(t, cfg)

	running := synthetic(t, s, tinySpec(), false) // c0001
	// c0002: four jobs over gzip's and mcf's warm classes.
	if _, err := cl.Run(ctx, sampledSpec("old", []string{"gzip", "mcf"}, 48)); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.shared.ckpt.DiskStat(); n != 4 {
		t.Fatalf("%d artifacts after the first campaign, want 4 (gzip+mcf x plain+noop)", n)
	}
	// c0003..c0007: with c0002 (4 jobs, charged 6), charged 16 over the
	// bound.
	for range maxFinishedJobs / maxCampaignJobs {
		synthetic(t, s, jobsSpec(maxCampaignJobs), true)
	}
	// c0008 finishes two jobs later, over gzip's warm classes again: 20
	// over, so c0002 and c0003 leave.
	if _, err := cl.Run(ctx, sampledSpec("new", []string{"gzip"}, 64)); err != nil {
		t.Fatal(err)
	}

	left := []string{"c0002", "c0003"}
	stayed := []string{running.id, "c0004", "c0005", "c0006", "c0007", "c0008"}
	if got := registered(s); !slices.Equal(got, stayed) {
		t.Errorf("registry after the bound = %v, want %v", got, stayed)
	}
	if n, _ := s.shared.ckpt.DiskStat(); n != 4 {
		t.Errorf("%d artifacts after the eviction, want 4: c0002's leave only by the byte bound", n)
	}
	// c0009 brings the finished campaigns' charge to the bound; c0001,
	// the oldest, finishes 4 over it, stays, and c0004 leaves.
	synthetic(t, s, jobsSpec(maxFinishedJobs-charged(s)-campaignFixedJobs), true)
	s.end(running, nil, errors.New("ended by the test"))
	left = append(left, "c0004")
	stayed = []string{running.id, "c0005", "c0006", "c0007", "c0008", "c0009"}
	if got := registered(s); !slices.Equal(got, stayed) {
		t.Errorf("registry after the oldest finished = %v, want %v", got, stayed)
	}

	for _, id := range left {
		if _, err := cl.Status(ctx, id); wire.StatusCode(err) != http.StatusNotFound {
			t.Errorf("evicted %s: status err = %v, want 404", id, err)
		}
		if hasRecords(t, cfg.StateDir, id) {
			t.Errorf("evicted %s kept its durable records", id)
		}
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_campaigns_evicted_total"); v != float64(len(left)) {
		t.Errorf("sdiqd_campaigns_evicted_total = %g, want %d", v, len(left))
	}
	if v := metricValue(t, text, "sdiqd_campaigns_deleted_total"); v != 0 {
		t.Errorf("sdiqd_campaigns_deleted_total = %g, want 0", v)
	}

	killServer(s)
	s2, _ := startServer(t, cfg)
	if got := registered(s2); !slices.Equal(got, stayed) {
		t.Errorf("registry after restart = %v, want %v", got, stayed)
	}
	if n := s2.met.campaignsEvicted.Load(); n != 0 {
		t.Errorf("restart evicted %d campaigns, want 0: the survivors fit", n)
	}
}

// TestRegistryBoundAtRecovery: of the finished records on disk only the
// newest charged within maxFinishedJobs register; the older ones are
// removed and counted, not registered or re-run. An unfinished record
// older than all of them still recovers, and finishes.
func TestRegistryBoundAtRecovery(t *testing.T) {
	state := t.TempDir()
	st, err := store.Open(state)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	seq := 0
	write := func(spec campaign.Spec, finished bool) string {
		t.Helper()
		seq++
		id := fmt.Sprintf("c%04d", seq)
		if err := st.Create(store.Meta{ID: id, Submitted: now, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if finished {
			if err := st.Finish(id, store.Snapshot{Done: true, Error: "synthetic", Finished: now}); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}

	// The newest record holds one job, so fit campaigns of
	// maxCampaignJobs fit beside it, with room for the unfinished one.
	fit := (maxFinishedJobs - charge(1)) / charge(maxCampaignJobs)
	if charge(1)+fit*charge(maxCampaignJobs)+charge(len(tinySpec().Techniques)) > maxFinishedJobs {
		t.Fatal("no room under the bound for the unfinished campaign")
	}
	unfinished := write(tinySpec(), false)
	over := write(jobsSpec(maxCampaignJobs), true)
	want := []string{unfinished}
	for range fit {
		want = append(want, write(jobsSpec(maxCampaignJobs), true))
	}
	want = append(want, write(jobsSpec(1), true))

	s, cl := startServer(t, Config{CacheDir: t.TempDir(), StateDir: state, Workers: 2})
	if got := registered(s); !slices.Equal(got, want) {
		t.Errorf("registry after recovery = %v, want %v", got, want)
	}
	if hasRecords(t, state, over) {
		t.Errorf("%s, over the bound, kept its durable records", over)
	}
	for _, id := range want {
		if !hasRecords(t, state, id) {
			t.Errorf("%s lost its durable records", id)
		}
	}
	waitStatus(t, cl, unfinished, "done", func(info CampaignInfo) bool { return info.Done })
	if got := registered(s); !slices.Equal(got, want) {
		t.Errorf("registry after the unfinished campaign finished = %v, want %v", got, want)
	}
	if n := s.met.campaignsEvicted.Load(); n != 1 {
		t.Errorf("campaigns evicted = %d, want 1 (%s)", n, over)
	}
	if n := s.met.campaignsRecovered.Load(); n != 1 {
		t.Errorf("campaigns recovered = %d, want 1 (%s)", n, unfinished)
	}
}

// TestRegistryDeleteRacesEviction: a DELETE races the eviction of the
// same campaign, which a one-job campaign finishing at the bound
// triggers. Whichever claims it first wins: the campaign leaves once,
// its records go, and exactly one of the two counters moves.
func TestRegistryDeleteRacesEviction(t *testing.T) {
	state := t.TempDir()
	s, _ := startServer(t, Config{StateDir: state, Workers: 1})
	const races = 20
	victims := make([]*campaignRun, races) // the oldest finished, one per race
	for i := range victims {
		victims[i] = synthetic(t, s, jobsSpec(1), true)
	}
	fillFinished(t, s, maxFinishedJobs-races*charge(1))
	h := s.Handler()
	var deletes, evictions int64
	for i, v := range victims {
		finishing := synthetic(t, s, jobsSpec(1), false)
		// A skew that grows over the races, across the time end takes to
		// write a terminal record, so both claimants get to win.
		skew := time.Duration(i) * 10 * time.Microsecond
		start := make(chan struct{})
		rec := httptest.NewRecorder()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			s.end(finishing, nil, nil)
		}()
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(skew)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/campaigns/"+v.id, nil))
		}()
		close(start)
		wg.Wait()

		d, e := s.met.campaignsDeleted.Load(), s.met.campaignsEvicted.Load()
		switch {
		case rec.Code == http.StatusNoContent && d == deletes+1 && e == evictions:
			deletes++
		case rec.Code == http.StatusNotFound && e == evictions+1 && d == deletes:
			evictions++
		default:
			t.Fatalf("%s: DELETE answered %d; deleted %d -> %d, evicted %d -> %d: want one outcome and one counter",
				v.id, rec.Code, deletes, d, evictions, e)
		}
		if slices.Contains(registered(s), v.id) || hasRecords(t, state, v.id) {
			t.Fatalf("%s is still registered or on disk", v.id)
		}
		if held := charged(s); held != maxFinishedJobs {
			t.Fatalf("after %s: finished campaigns charged %d, want %d", v.id, held, maxFinishedJobs)
		}
	}
	t.Logf("%d races won by DELETE, %d by the eviction", deletes, evictions)
}

// TestRegistryChargesCampaigns: each finished campaign is charged its
// jobs plus campaignFixedJobs, its own heap counted in jobs, so a
// registry that one-job campaigns fill holds maxFinishedJobs/(1+k) of
// them, not maxFinishedJobs: the oldest leave as each new one finishes.
func TestRegistryChargesCampaigns(t *testing.T) {
	s, _ := startServer(t, Config{Workers: 1})
	for range maxFinishedJobs {
		s.end(synthetic(t, s, jobsSpec(1), false), nil, nil)
	}
	held, want := len(registered(s)), maxFinishedJobs/(1+campaignFixedJobs)
	if held > want {
		t.Errorf("%d one-job campaigns stay, want at most %d", held, want)
	}
	if held != want || charged(s) != want*charge(1) {
		t.Errorf("%d one-job campaigns stay, charged %d; want the bound full: %d, charged %d", held, charged(s), want, want*charge(1))
	}
	if n := s.met.campaignsEvicted.Load(); n != int64(maxFinishedJobs-want) {
		t.Errorf("%d campaigns evicted, want %d", n, maxFinishedJobs-want)
	}
}

// TestRegistryShutdownKeepsRunning: campaigns stopped by server shutdown
// did not finish. They write no terminal record and do not join the
// finished campaigns, so a registry at the bound evicts nothing when
// they stop, and the next boot resumes both.
func TestRegistryShutdownKeepsRunning(t *testing.T) {
	state := t.TempDir()
	s, _ := startServer(t, Config{StateDir: state, Workers: 1})
	stopped := []*campaignRun{synthetic(t, s, tinySpec(), false), synthetic(t, s, tinySpec(), false)}
	fillFinished(t, s, maxFinishedJobs)
	s.cancel()
	for _, rc := range stopped {
		s.end(rc, nil, context.Canceled)
	}
	if n := s.met.campaignsEvicted.Load(); n != 0 {
		t.Errorf("shutdown evicted %d campaigns, want 0", n)
	}
	for _, rc := range stopped {
		if got := campaignFiles(t, state, rc.id); !slices.Equal(got, []string{"meta.json"}) {
			t.Errorf("%s stopped by shutdown left %v, want only its submission record", rc.id, got)
		}
	}
}

// BenchmarkFinishAtBound times one finish at a full registry: with
// maxFinishedJobs/charge(1) one-job finished campaigns registered, a
// one-job campaign finishes over the bound and the oldest finished
// campaign leaves. Each finishing campaign registers off the clock.
//
//	go test ./internal/serve -run '^$' -bench FinishAtBound -benchtime 2000x
func BenchmarkFinishAtBound(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Cleanup(s.Close)
	for range maxFinishedJobs / charge(1) {
		synthetic(b, s, jobsSpec(1), true)
	}
	n := int64(0)
	for b.Loop() {
		b.StopTimer()
		rc := synthetic(b, s, jobsSpec(1), false)
		b.StartTimer()
		s.end(rc, nil, nil)
		n++
	}
	if got := s.met.campaignsEvicted.Load(); got != n {
		b.Fatalf("%d finishes evicted %d campaigns, want one each", n, got)
	}
}
