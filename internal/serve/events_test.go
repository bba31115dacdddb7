// Event-log compaction: huge sweeps must stay streamable. A late
// subscriber's replay is snapshot + tail, and the satellite's contract
// is that this replay is state-equivalent to the full, uncompacted log.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

// drain replays a closed hub from sequence zero, like a late joiner.
func drain(t *testing.T, h *hub) []Event {
	t.Helper()
	var out []Event
	next := 0
	for {
		evs, cursor, closed, _ := h.since(next)
		out = append(out, evs...)
		next = cursor
		if closed && len(evs) == 0 {
			return out
		}
		if len(evs) == 0 {
			t.Fatal("hub stalled with no events and not closed")
		}
	}
}

// foldStates reduces a replay to each job's final status plus the
// terminal event — the state a consumer actually builds from a stream.
// Snapshot events contribute their whole roster.
func foldStates(evs []Event) (map[string]campaign.JobStatus, *Event) {
	states := make(map[string]campaign.JobStatus)
	var done *Event
	for _, ev := range evs {
		switch ev.Type {
		case EventJob:
			states[ev.Job.ID] = *ev.Job
		case EventSnapshot:
			for _, js := range ev.Status.Jobs {
				states[js.ID] = js
			}
		case EventDone:
			ev := ev
			done = &ev
		}
	}
	return states, done
}

// publishScript drives a hub through a synthetic 12-job campaign whose
// transitions (running then done, interleaved) far exceed a small
// compaction bound.
func publishScript(h *hub, jobs int) {
	h.publish(Event{Type: EventSubmitted, Campaign: "c0001"})
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%02d", i)
		h.publish(Event{Type: EventJob, Campaign: "c0001", Job: &campaign.JobStatus{
			ID: id, Bench: "gzip", State: campaign.JobRunning,
		}})
		h.publish(Event{Type: EventJob, Campaign: "c0001", Job: &campaign.JobStatus{
			ID: id, Bench: "gzip", State: campaign.JobDone, IPC: 1.5,
		}})
	}
	st := campaign.Status{Total: jobs, Done: jobs, Executed: jobs}
	h.publish(Event{Type: EventDone, Campaign: "c0001", Status: &st})
	h.close()
}

// TestCompactedReplayEqualsFullReplay is the satellite's regression
// gate: an aggressively compacted hub and an uncompacted one fed the
// identical event script must replay to identical final state.
func TestCompactedReplayEqualsFullReplay(t *testing.T) {
	const jobs = 12
	full := newHub(jobs, 1<<20) // never compacts
	tight := newHub(jobs, 6)    // compacts repeatedly mid-script
	publishScript(full, jobs)
	publishScript(tight, jobs)

	fullEvs, tightEvs := drain(t, full), drain(t, tight)
	if len(tightEvs) >= len(fullEvs) {
		t.Fatalf("compaction did not shrink replay: %d vs %d events", len(tightEvs), len(fullEvs))
	}
	if tightEvs[0].Type != EventSnapshot {
		t.Fatalf("compacted replay starts with %q, want snapshot", tightEvs[0].Type)
	}

	fullStates, fullDone := foldStates(fullEvs)
	tightStates, tightDone := foldStates(tightEvs)
	if !reflect.DeepEqual(fullStates, tightStates) {
		t.Errorf("replayed job states diverge:\nfull:  %+v\ntight: %+v", fullStates, tightStates)
	}
	if fullDone == nil || tightDone == nil {
		t.Fatalf("done event lost: full=%v tight=%v", fullDone, tightDone)
	}
	if !reflect.DeepEqual(fullDone.Status, tightDone.Status) {
		t.Errorf("done status diverges: %+v vs %+v", fullDone.Status, tightDone.Status)
	}

	// Sequence numbers must stay monotonic across the snapshot seam so
	// a reconnecting client's duplicate filter keeps working.
	for i := 1; i < len(tightEvs); i++ {
		if tightEvs[i].Seq <= tightEvs[i-1].Seq {
			t.Fatalf("non-monotonic seq at %d: %d after %d", i, tightEvs[i].Seq, tightEvs[i-1].Seq)
		}
	}
}

// TestAttachedSubscriberSurvivesCompaction: a subscriber that is
// current (cursor in the tail) must never be handed the snapshot or
// re-sent history when compaction fires beneath it.
func TestAttachedSubscriberSurvivesCompaction(t *testing.T) {
	h := newHub(4, 4)
	seen := 0
	next := 0
	h.publish(Event{Type: EventSubmitted, Campaign: "c0001"})
	for i := 0; i < 20; i++ {
		h.publish(Event{Type: EventJob, Campaign: "c0001", Job: &campaign.JobStatus{
			ID: fmt.Sprintf("j%02d", i%4), State: campaign.JobRunning,
		}})
		evs, cursor, _, _ := h.since(next)
		for _, ev := range evs {
			if ev.Type == EventSnapshot {
				t.Fatalf("current subscriber handed a snapshot at seq %d", ev.Seq)
			}
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

// TestServerStreamCompaction drives a real campaign with a tiny
// compaction bound and replays its stream end to end: a snapshot event
// must appear, and the folded states must agree with the status
// endpoint's final roster.
func TestServerStreamCompaction(t *testing.T) {
	ctx := context.Background()
	_, cl := startServer(t, Config{
		CacheDir:          t.TempDir(),
		Workers:           2,
		EventCompactAfter: 4,
	})
	sub, err := cl.Submit(ctx, failureSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, cl, sub.ID, "done", func(info CampaignInfo) bool { return info.Done })

	resp, err := cl.do(ctx, "GET", "/v1/campaigns/"+sub.ID+"/events", nil)
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

	sawSnapshot := false
	for _, ev := range evs {
		if ev.Type == EventSnapshot {
			sawSnapshot = true
		}
	}
	if !sawSnapshot {
		t.Fatalf("no snapshot event in %d-event replay with EventCompactAfter=4", len(evs))
	}

	states, done := foldStates(evs)
	if done == nil {
		t.Fatal("replay lost the done event")
	}
	info, err := cl.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range info.Status.Jobs {
		got, ok := states[js.ID]
		if !ok {
			t.Errorf("job %s missing from compacted replay", js.ID)
			continue
		}
		if got.State != js.State || got.IPC != js.IPC || got.Cached != js.Cached {
			t.Errorf("job %s replayed as %+v, status says %+v", js.ID, got, js)
		}
	}
}

// TestClientRunRelaysSnapshot: a client that joins after compaction
// receives the snapshot through OnEvent and still completes normally.
func TestClientRunRelaysSnapshot(t *testing.T) {
	ctx := context.Background()
	_, cl := startServer(t, Config{
		CacheDir:          t.TempDir(),
		Workers:           2,
		EventCompactAfter: 4,
	})
	// First run populates the log past the compaction bound.
	sub, err := cl.Submit(ctx, failureSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, cl, sub.ID, "done", func(info CampaignInfo) bool { return info.Done })

	var types []string
	err = cl.Stream(ctx, sub.ID, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[0] != EventSnapshot {
		t.Fatalf("late joiner stream starts with %v, want snapshot first", types)
	}
	if types[len(types)-1] != EventDone {
		t.Fatalf("late joiner stream ends with %v, want done", types)
	}
}
