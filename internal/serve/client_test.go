package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestClientRunRelaysRecoveredLog: a coordinator that recovers a
// campaign after a restart starts its event log again at Seq 0. A
// client following the campaign across the restart must relay that new
// log in full instead of dropping it as history already seen.
//
// The server is scripted: the first stream carries Seq 0–3 of the
// original log and then breaks; the second carries the recovered log,
// submitted, job, job, done at Seq 0–3 again, under a new submission
// time. Re-opening the stream tells Run all it needs, so a status
// request fails the test.
func TestClientRunRelaysRecoveredLog(t *testing.T) {
	const id = "c0001"
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	job := func(name string, state campaign.JobState) *campaign.JobStatus {
		return &campaign.JobStatus{ID: name, Bench: "gzip", State: state}
	}
	first := []Event{
		{Seq: 0, Time: t0, Type: EventSubmitted, Campaign: id},
		{Seq: 1, Time: t0, Type: EventJob, Campaign: id, Job: job("gzip/baseline", campaign.JobRunning)},
		{Seq: 2, Time: t0, Type: EventJob, Campaign: id, Job: job("gzip/noop", campaign.JobRunning)},
		{Seq: 3, Time: t0, Type: EventJob, Campaign: id, Job: job("gzip/baseline", campaign.JobDone)},
	}
	t1 := t0.Add(time.Minute)
	recovered := []Event{
		{Seq: 0, Time: t1, Type: EventSubmitted, Campaign: id},
		{Seq: 1, Time: t1, Type: EventJob, Campaign: id, Job: job("gzip/baseline", campaign.JobDone)},
		{Seq: 2, Time: t1, Type: EventJob, Campaign: id, Job: job("gzip/noop", campaign.JobDone)},
		{Seq: 3, Time: t1, Type: EventDone, Campaign: id, Status: &campaign.Status{Total: 2, Done: 2}},
	}

	var mu sync.Mutex
	streams := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, Submitted{ID: id, Jobs: 2})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		streams++
		n := streams
		mu.Unlock()
		evs := recovered
		if n == 1 {
			evs = first
		}
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for _, ev := range evs {
			_ = enc.Encode(ev)
		}
		w.(http.Flusher).Flush()
		if n == 1 {
			panic(http.ErrAbortHandler) // the coordinator dies mid-stream
		}
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		t.Error("Run asked for the campaign's status")
		writeError(w, http.StatusInternalServerError, "no status here")
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/export", func(w http.ResponseWriter, r *http.Request) {
		_ = (&campaign.ResultSet{Spec: tinySpec()}).WriteJSON(w)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cl := NewClient(ts.URL)
	var got []Event
	cl.OnEvent = func(ev Event) { got = append(got, ev) }
	if _, err := cl.Run(context.Background(), tinySpec()); err != nil {
		t.Fatal(err)
	}

	want := append(append([]Event(nil), first...), recovered...)
	if len(got) != len(want) {
		t.Fatalf("relayed %d events, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || !got[i].Time.Equal(want[i].Time) {
			t.Errorf("event %d relayed as seq %d %s at %v, want seq %d %s at %v",
				i, got[i].Seq, got[i].Type, got[i].Time, want[i].Seq, want[i].Type, want[i].Time)
		}
	}
}

// TestClientRunResubmitsForgottenCampaign: a server that answers the
// stream of c0001 with 404 came back without the campaign, so Run
// resubmits the spec and follows c0002 to its done event. The first
// export fetch dies in transit; Run goes round again, the re-opened
// stream replays done, and the second fetch succeeds. The scripted
// server has no status route.
func TestClientRunResubmitsForgottenCampaign(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var mu sync.Mutex
	submits, fetches := 0, 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		submits++
		id := fmt.Sprintf("c%04d", submits)
		mu.Unlock()
		writeJSON(w, http.StatusAccepted, Submitted{ID: id, Jobs: 2})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if id != "c0002" {
			writeError(w, http.StatusNotFound, "no campaign %q", id)
			return
		}
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		_ = enc.Encode(Event{Seq: 0, Time: t0, Type: EventSubmitted, Campaign: id})
		_ = enc.Encode(Event{Seq: 1, Time: t0, Type: EventDone, Campaign: id, Status: &campaign.Status{Total: 2, Done: 2}})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/export", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fetches++
		n := fetches
		mu.Unlock()
		if id := r.PathValue("id"); id != "c0002" {
			t.Errorf("export of %s fetched, want c0002", id)
		}
		if n == 1 {
			panic(http.ErrAbortHandler) // the connection drops before an answer
		}
		_ = (&campaign.ResultSet{Spec: tinySpec()}).WriteJSON(w)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var dones int
	cl := NewClient(ts.URL)
	cl.OnEvent = func(ev Event) {
		if ev.Type == EventDone {
			dones++
		}
	}
	rs, err := cl.Run(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Spec.Name != tinySpec().Name {
		t.Errorf("Run returned the set of spec %q", rs.Spec.Name)
	}
	mu.Lock()
	defer mu.Unlock()
	if submits != 2 || fetches != 2 {
		t.Errorf("%d submits and %d export fetches, want 2 and 2", submits, fetches)
	}
	if dones != 1 {
		t.Errorf("done relayed %d times, want once: the replayed one is history", dones)
	}
}
