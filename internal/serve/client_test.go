package serve

import (
	"context"
	"encoding/json"
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
// time.
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
		mu.Lock()
		done := streams >= 2
		mu.Unlock()
		writeJSON(w, http.StatusOK, CampaignInfo{ID: id, Jobs: 2, Done: done})
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
