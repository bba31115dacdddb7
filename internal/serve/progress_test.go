// A campaign's progress: the roster and counters an engine's callbacks
// drive, and the event log replayed to every stream subscriber.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// drain replays a finished campaign's log from sequence zero, like a
// late joiner.
func drain(t *testing.T, p *progress) []Event {
	t.Helper()
	var out []Event
	next := 0
	for {
		evs, cursor, closed, _ := p.since(next)
		out = append(out, evs...)
		next = cursor
		if closed && len(evs) == 0 {
			return out
		}
		if len(evs) == 0 {
			t.Fatal("log stalled with no events and not closed")
		}
	}
}

// runProgress runs spec on a plain engine with p's callbacks attached
// and ends p with the outcome, as the server's run does.
func runProgress(t *testing.T, p *progress, workers int, spec campaign.Spec) error {
	t.Helper()
	e := &campaign.Engine{
		Workers:    workers,
		OnJobStart: p.started,
		OnResult:   p.delivered,
		OnJobError: p.failed,
	}
	rs, err := e.Run(context.Background(), spec)
	p.finish(time.Now().UTC(), rs, err, nil)
	return err
}

// TestProgressLifecycle drives a real campaign through a progress and
// checks the snapshot arithmetic, the per-job terminal states and the
// job events logged.
func TestProgressLifecycle(t *testing.T) {
	spec := failureSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p := newProgress("c0001", jobs)

	before := p.snapshot()
	if before.Total != 4 || before.Pending != 4 || len(before.Jobs) != 4 {
		t.Fatalf("initial snapshot off: %+v", before)
	}

	if err := runProgress(t, p, 2, spec); err != nil {
		t.Fatal(err)
	}

	after := p.snapshot()
	if after.Done != 4 || after.Pending != 0 || after.Running != 0 || after.Skipped != 0 {
		t.Errorf("final snapshot off: %+v", after)
	}
	if after.Executed != 4 || after.CacheHits != 0 || after.DedupHits != 0 {
		t.Errorf("hit accounting off: %+v", after)
	}
	if after.CommittedInsts < 4*spec.Budget {
		t.Errorf("committed insts %d below 4 budgets", after.CommittedInsts)
	}
	for _, js := range after.Jobs {
		if js.State != campaign.JobDone {
			t.Errorf("job %s state %s, want done", js.ID, js.State)
		}
		if js.StartedAt.IsZero() || js.FinishedAt.IsZero() {
			t.Errorf("job %s missing timestamps", js.ID)
		}
		if js.IPC <= 0 {
			t.Errorf("job %s IPC %f", js.ID, js.IPC)
		}
	}
	// Every job logs running then done: 8 transitions in total.
	var changes []campaign.JobState
	for _, ev := range drain(t, p) {
		if ev.Type == EventJob {
			changes = append(changes, ev.Job.State)
		}
	}
	if len(changes) != 8 {
		t.Errorf("saw %d transitions, want 8 (%v)", len(changes), changes)
	}
}

// TestProgressFailuresAndSkips: a failing job must land failed with its
// error, and jobs the cancellation abandoned must end skipped, not
// pending.
func TestProgressFailuresAndSkips(t *testing.T) {
	spec := failureSpec()
	spec.Benchmarks = []string{"nosuchbench", "gzip"}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p := newProgress("c0001", jobs)
	if err := runProgress(t, p, 1, spec); err == nil {
		t.Fatal("campaign with bad benchmark succeeded")
	}

	st := p.snapshot()
	if st.Failed == 0 {
		t.Error("no job marked failed")
	}
	if st.Pending != 0 || st.Running != 0 {
		t.Errorf("abandoned jobs left pending/running: %+v", st)
	}
	if st.Failed+st.Done+st.Skipped != st.Total {
		t.Errorf("states do not partition the campaign: %+v", st)
	}
	var sawError bool
	for _, js := range st.Jobs {
		if js.State == campaign.JobFailed && js.Error != "" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("failed job carries no error text")
	}
}

// TestProgressDuplicateListing: a spec that lists a job twice runs it
// twice, and each listing has its own roster entry that ends done.
func TestProgressDuplicateListing(t *testing.T) {
	spec := failureSpec()
	spec.Benchmarks = []string{"gzip", "gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p := newProgress("c0001", jobs)
	if err := runProgress(t, p, 2, spec); err != nil {
		t.Fatal(err)
	}
	st := p.snapshot()
	if st.Total != 2 || st.Done != 2 || st.Executed != 2 || st.Pending+st.Running+st.Skipped != 0 {
		t.Errorf("duplicate listing: %+v", st)
	}
	for _, js := range st.Jobs {
		if js.State != campaign.JobDone {
			t.Errorf("listing of %s ended %s, want done", js.ID, js.State)
		}
	}
}

// TestAttachedSubscriberCursor: a subscriber that is current must be
// handed each new event exactly once, never history below its cursor.
func TestAttachedSubscriberCursor(t *testing.T) {
	spec := campaign.DefaultSpec(5_000) // 55 jobs
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p := newProgress("c0001", jobs)
	seen := 0
	next := 0
	p.begin()
	for i := 0; i < 20; i++ {
		p.started(jobs[i])
		evs, cursor, _, _ := p.since(next)
		for _, ev := range evs {
			if ev.Seq < next {
				t.Fatalf("event %d replayed below cursor %d", ev.Seq, next)
			}
			seen++
		}
		next = cursor
	}
	if seen != 21 {
		t.Fatalf("attached subscriber saw %d events, want 21", seen)
	}
}

// TestProgressConcurrentSubscribers: subscribers that follow the log
// while the engine's callbacks append to it, and status readers polling
// beside them, each see the whole log in order — the one a late joiner
// replays — and a final snapshot consistent with it.
func TestProgressConcurrentSubscribers(t *testing.T) {
	spec := failureSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	p := newProgress("c0001", jobs)
	p.begin()
	const subscribers = 4
	logs := make([][]Event, subscribers)
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := 0
			for {
				evs, cursor, closed, wake := p.since(next)
				logs[i] = append(logs[i], evs...)
				next = cursor
				if closed && len(evs) == 0 {
					return
				}
				if !closed {
					<-wake
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			st := p.snapshot()
			if st.Pending+st.Running+st.Done+st.Failed+st.Skipped != st.Total {
				t.Errorf("snapshot states do not partition the campaign: %+v", st)
			}
			if done, _, _, _ := p.state(); done {
				return
			}
		}
	}()
	if err := runProgress(t, p, 2, spec); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	want := drain(t, p)
	for i, got := range logs {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("subscriber %d saw %d events, the log holds %d", i, len(got), len(want))
		}
	}
}

// TestServerStreamReplay replays a real campaign's stream end to end:
// "submitted" opens it at Seq 0, sequence numbers are contiguous,
// "done" closes it, and the roster folded from the job events equals
// the one the status endpoint reports.
func TestServerStreamReplay(t *testing.T) {
	ctx := context.Background()
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	sub, err := cl.Submit(ctx, failureSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, cl, sub.ID, "done", func(info CampaignInfo) bool { return info.Done })

	resp, err := cl.conn().Send(ctx, "GET", "/v1/campaigns/"+sub.ID+"/events", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(evs) < 2 || evs[0].Type != EventSubmitted || evs[0].Seq != 0 {
		t.Fatalf("stream does not open with submitted at seq 0: %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: sequence numbers not contiguous", i, ev.Seq)
		}
		if ev.Campaign != sub.ID {
			t.Errorf("event %d names campaign %q, want %q", i, ev.Campaign, sub.ID)
		}
	}
	done := evs[len(evs)-1]
	if done.Type != EventDone || done.Status == nil {
		t.Fatalf("stream does not close with a done event: %+v", done)
	}

	states := make(map[string]campaign.JobStatus)
	var order []string
	for _, ev := range evs[1 : len(evs)-1] {
		if ev.Type != EventJob {
			t.Fatalf("event %d between submitted and done is %q", ev.Seq, ev.Type)
		}
		if _, ok := states[ev.Job.ID]; !ok {
			order = append(order, ev.Job.ID)
		}
		states[ev.Job.ID] = *ev.Job
	}
	info, err := cl.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(info.Status.Jobs) {
		t.Errorf("replay names %d jobs, status lists %d", len(order), len(info.Status.Jobs))
	}
	for _, js := range info.Status.Jobs {
		got, ok := states[js.ID]
		if !ok {
			t.Errorf("job %s missing from the replay", js.ID)
			continue
		}
		if !reflect.DeepEqual(got, js) {
			t.Errorf("job %s replayed as %+v, status says %+v", js.ID, got, js)
		}
	}
	final := info.Status
	final.Jobs = nil
	if !reflect.DeepEqual(*done.Status, final) {
		t.Errorf("done event status %+v, status endpoint %+v", *done.Status, final)
	}
}
