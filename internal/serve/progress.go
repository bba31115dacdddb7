package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
)

// Event is one progress record of a campaign: its submission, every job
// state transition, and its completion. Events are totally ordered per
// campaign (Seq starts at 0) and are replayed from the beginning to
// every stream subscriber, so a client that connects late still sees
// the whole history.
type Event struct {
	Seq      int       `json:"seq"`
	Time     time.Time `json:"time"`
	Type     string    `json:"type"` // "submitted", "job", "done"
	Campaign string    `json:"campaign"`
	// Job carries the transition for "job" events.
	Job *campaign.JobStatus `json:"job,omitempty"`
	// Status summarises progress (without the per-job list).
	Status *campaign.Status `json:"status,omitempty"`
	// Error is set on "done" events of failed campaigns.
	Error string `json:"error,omitempty"`
}

// Event types.
const (
	EventSubmitted = "submitted"
	EventJob       = "job"
	EventDone      = "done"
)

// progress is one campaign's observable state behind one mutex: the job
// roster and its counters, the event log every stream subscriber
// replays, and the outcome once the campaign ends. Each job transition
// updates the roster and appends its event in one step, so a status
// snapshot and the log never disagree. The log holds at most two job
// events per job (running, then done, failed or skipped) — admission
// bounds the job count, so nothing here needs compacting.
type progress struct {
	id string // the campaign ID every event carries

	mu     sync.Mutex
	roster []campaign.JobStatus // in campaign job order; its length never changes
	index  map[string][]int     // job ID → roster positions (a spec may list a job twice); nil once done
	stat   campaign.Status      // counters; Jobs stays nil
	events []Event
	wake   chan struct{} // closed and replaced on every append and at finish

	// The outcome, set once by finish; the log is complete from then on.
	done     bool
	finished time.Time
	rs       *campaign.ResultSet
	err      error
}

// newProgress returns a campaign's progress with every job pending and
// an empty log.
func newProgress(id string, jobs []campaign.Job) *progress {
	p := &progress{
		id:     id,
		roster: make([]campaign.JobStatus, len(jobs)),
		index:  make(map[string][]int, len(jobs)),
		wake:   make(chan struct{}),
	}
	for i := range jobs {
		j := &jobs[i]
		p.roster[i] = campaign.JobStatus{
			ID:    j.ID(),
			Bench: j.Bench,
			Tech:  j.Tech,
			Point: j.Point.String(),
			State: campaign.JobPending,
		}
		id := p.roster[i].ID
		p.index[id] = append(p.index[id], i)
	}
	p.stat.Total = len(jobs)
	p.stat.Pending = len(jobs)
	return p
}

// appendLocked stamps ev and appends it to the log, waking every
// waiting subscriber. The caller holds p.mu.
func (p *progress) appendLocked(ev Event) {
	ev.Seq = len(p.events)
	ev.Time = time.Now().UTC()
	ev.Campaign = p.id
	p.events = append(p.events, ev)
	close(p.wake)
	p.wake = make(chan struct{})
}

// begin opens the log with the campaign's "submitted" event.
func (p *progress) begin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appendLocked(Event{Type: EventSubmitted})
}

// count moves js's job into (d = +1) or out of (d = -1) the counters
// of its state; a done job also counts by how it was served.
func (p *progress) count(js *campaign.JobStatus, d int) {
	st := &p.stat
	switch js.State {
	case campaign.JobPending:
		st.Pending += d
	case campaign.JobRunning:
		st.Running += d
	case campaign.JobDone:
		st.Done += d
		switch {
		case js.Dedup:
			st.DedupHits += d
		case js.Cached:
			st.CacheHits += d
		default:
			st.Executed += d
		}
	case campaign.JobFailed:
		st.Failed += d
	case campaign.JobSkipped:
		st.Skipped += d
	}
}

// transitionLocked applies fn to job i's status, keeps the counters in
// step and logs the change. The caller holds p.mu.
func (p *progress) transitionLocked(i int, fn func(*campaign.JobStatus)) {
	js := &p.roster[i]
	p.count(js, -1)
	fn(js)
	p.count(js, +1)
	out := *js
	p.appendLocked(Event{Type: EventJob, Job: &out})
}

// transition records one job transition on the job's roster entry in
// the first of the from states that has one; a job listed twice has an
// entry per listing, and each transition takes one. Unknown IDs (a
// result restamped onto a point the roster never saw) are ignored
// rather than invented, and so is anything after finish.
func (p *progress) transition(id string, fn func(*campaign.JobStatus), from ...campaign.JobState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	for _, state := range from {
		for _, i := range p.index[id] {
			if p.roster[i].State == state {
				p.transitionLocked(i, fn)
				return
			}
		}
	}
}

// started is the engine's OnJobStart: the job's simulation begins.
func (p *progress) started(j campaign.Job) {
	p.transition(j.ID(), func(js *campaign.JobStatus) {
		js.State = campaign.JobRunning
		js.StartedAt = time.Now().UTC()
	}, campaign.JobPending)
}

// delivered is the engine's OnResult: the job is done, simulated here
// or served from the cache or a concurrent identical execution.
func (p *progress) delivered(r campaign.Result) {
	id := (&campaign.Job{Bench: r.Bench, Tech: r.Tech, Point: r.Point}).ID()
	p.transition(id, func(js *campaign.JobStatus) {
		js.State = campaign.JobDone
		js.Cached = r.Cached
		js.Dedup = r.Dedup
		js.IPC = r.Stats.IPC()
		if r.Cached || r.Dedup {
			// Served, not simulated: the result's own stamps belong to
			// the execution that populated it.
			js.FinishedAt = time.Now().UTC()
		} else {
			js.StartedAt, js.FinishedAt = r.StartedAt, r.FinishedAt
			p.stat.CommittedInsts += r.Stats.CommittedReal
		}
	}, campaign.JobRunning, campaign.JobPending)
}

// failed is the engine's OnJobError.
func (p *progress) failed(j campaign.Job, err error) {
	p.transition(j.ID(), func(js *campaign.JobStatus) {
		js.State = campaign.JobFailed
		js.Error = err.Error()
		js.FinishedAt = time.Now().UTC()
	}, campaign.JobRunning, campaign.JobPending)
}

// restore replays a terminal record's final status: each known job's
// status is replaced wholesale and logged, as if observed live, which
// recounts every counter but the committed instructions, summed as
// executed jobs land and so taken as recorded.
func (p *progress) restore(st campaign.Status) {
	for _, js := range st.Jobs {
		p.transition(js.ID, func(cur *campaign.JobStatus) { *cur = js }, campaign.JobPending)
	}
	p.mu.Lock()
	p.stat.CommittedInsts = st.CommittedInsts
	p.mu.Unlock()
}

// finish ends the campaign: every job still pending or running becomes
// skipped, ending (when non-nil) receives the final status with its
// roster, and only then is the outcome set and the log closed with the
// "done" event — so whatever ending does has happened before the
// campaign reads as done.
func (p *progress) finish(finished time.Time, rs *campaign.ResultSet, err error, ending func(campaign.Status)) {
	p.mu.Lock()
	for i := range p.roster {
		if s := p.roster[i].State; s == campaign.JobPending || s == campaign.JobRunning {
			p.transitionLocked(i, func(js *campaign.JobStatus) { js.State = campaign.JobSkipped })
		}
	}
	p.mu.Unlock()
	if ending != nil {
		ending(p.snapshot())
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.done, p.finished, p.rs, p.err = true, finished, rs, err
	p.index = nil // transition reads it only while the campaign runs
	st := p.stat
	done := Event{Type: EventDone, Status: &st}
	if err != nil {
		done.Error = err.Error()
	}
	p.appendLocked(done)
}

// state returns the campaign's outcome; done is false while it runs.
func (p *progress) state() (done bool, finished time.Time, rs *campaign.ResultSet, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.finished, p.rs, p.err
}

// snapshot returns the counters with per-job detail in campaign job
// order.
func (p *progress) snapshot() campaign.Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.stat
	out.Jobs = append([]campaign.JobStatus(nil), p.roster...)
	return out
}

// summary is snapshot without the roster — O(1), for listings over
// many campaigns.
func (p *progress) summary() campaign.Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stat
}

// since returns the events with Seq >= from, the cursor to resume from,
// whether the log is complete, and a channel signalling the next
// change.
func (p *progress) since(from int) (evs []Event, next int, closed bool, wake <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < len(p.events) {
		evs = p.events[from:len(p.events):len(p.events)]
	}
	return evs, from + len(evs), p.done, p.wake
}

// streamEvents writes a campaign's event log to w as it grows — NDJSON
// (one JSON event per line) by default, server-sent events when the
// client asks via Accept: text/event-stream or ?format=sse — returning
// when the campaign completes or the client goes away.
func streamEvents(w http.ResponseWriter, r *http.Request, p *progress) {
	sse := r.URL.Query().Get("format") == "sse" ||
		r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		evs, cursor, closed, wake := p.since(next)
		for _, ev := range evs {
			blob, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, blob)
			} else {
				fmt.Fprintf(w, "%s\n", blob)
			}
		}
		next = cursor
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if closed && len(evs) == 0 {
			return
		}
		if closed {
			continue // drain whatever landed between since() calls
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
