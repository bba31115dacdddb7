package campaign

import (
	"sync"
	"time"
)

// JobState is the lifecycle of one job within a running campaign.
type JobState string

// Job lifecycle states. A job goes pending → running → done/failed when
// it is actually simulated; cache and dedup hits jump straight from
// pending to done; jobs abandoned after a cancellation end skipped.
const (
	JobPending JobState = "pending"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
	JobSkipped JobState = "skipped"
)

// JobStatus is the observable state of one job — what the campaign
// service streams to clients and reports in status snapshots.
type JobStatus struct {
	ID    string    `json:"id"`
	Bench string    `json:"bench"`
	Tech  Technique `json:"tech"`
	Point string    `json:"point,omitempty"`
	State JobState  `json:"state"`
	// Cached marks a result served from the on-disk cache, Dedup one
	// shared from a concurrent identical execution.
	Cached bool   `json:"cached,omitempty"`
	Dedup  bool   `json:"dedup,omitempty"`
	Error  string `json:"error,omitempty"`
	// IPC is the headline result metric, set once the job is done.
	IPC        float64   `json:"ipc,omitempty"`
	StartedAt  time.Time `json:"started_at,omitzero"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// Status is a point-in-time snapshot of a campaign's progress.
type Status struct {
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Skipped int `json:"skipped"`
	// Executed counts jobs actually simulated; CacheHits and DedupHits
	// count jobs served from the disk cache or a concurrent execution.
	Executed  int `json:"executed"`
	CacheHits int `json:"cache_hits"`
	DedupHits int `json:"dedup_hits"`
	// CommittedInsts totals Stats.CommittedReal over executed jobs — the
	// service's instruction-throughput accounting.
	CommittedInsts int64       `json:"committed_insts"`
	Jobs           []JobStatus `json:"jobs,omitempty"`
}

// Tracker turns an Engine's callbacks into a queryable progress
// snapshot plus a per-change event feed. Create it with the campaign's
// job list, Attach it to the engine, and call Snapshot whenever a
// client asks; OnChange (if set) observes every job transition in
// order.
type Tracker struct {
	mu    sync.Mutex
	order []string
	jobs  map[string]*JobStatus
	stat  Status

	// OnChange, when non-nil, is called after every job state change
	// with a copy of the job's new status. Calls are serialised.
	OnChange func(JobStatus)
}

// NewTracker returns a tracker primed with every job pending.
func NewTracker(jobs []Job) *Tracker {
	t := &Tracker{jobs: make(map[string]*JobStatus, len(jobs))}
	for i := range jobs {
		j := &jobs[i]
		id := j.ID()
		t.order = append(t.order, id)
		t.jobs[id] = &JobStatus{
			ID:    id,
			Bench: j.Bench,
			Tech:  j.Tech,
			Point: j.Point.String(),
			State: JobPending,
		}
	}
	t.stat.Total = len(jobs)
	t.stat.Pending = len(jobs)
	return t
}

// Attach wires the tracker into an engine's progress callbacks,
// chaining any callbacks already installed.
func (t *Tracker) Attach(e *Engine) {
	prevStart, prevResult, prevError := e.OnJobStart, e.OnResult, e.OnJobError
	e.OnJobStart = func(j Job) {
		t.jobStarted(&j)
		if prevStart != nil {
			prevStart(j)
		}
	}
	e.OnResult = func(r Result) {
		t.jobDone(r)
		if prevResult != nil {
			prevResult(r)
		}
	}
	e.OnJobError = func(j Job, err error) {
		t.jobFailed(&j, err)
		if prevError != nil {
			prevError(j, err)
		}
	}
}

// update applies fn to the job's status under the lock and emits the
// change. Unknown IDs (a result restamped onto a point the tracker
// never saw) are ignored rather than invented.
func (t *Tracker) update(id string, fn func(*JobStatus)) {
	t.mu.Lock()
	js, ok := t.jobs[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	t.leave(js.State)
	fn(js)
	t.enter(js.State)
	out := *js
	cb := t.OnChange
	t.mu.Unlock()
	if cb != nil {
		cb(out)
	}
}

func (t *Tracker) leave(s JobState) { t.bucket(s, -1) }
func (t *Tracker) enter(s JobState) { t.bucket(s, +1) }

func (t *Tracker) bucket(s JobState, d int) {
	switch s {
	case JobPending:
		t.stat.Pending += d
	case JobRunning:
		t.stat.Running += d
	case JobDone:
		t.stat.Done += d
	case JobFailed:
		t.stat.Failed += d
	case JobSkipped:
		t.stat.Skipped += d
	}
}

func (t *Tracker) jobStarted(j *Job) {
	t.update(j.ID(), func(js *JobStatus) {
		js.State = JobRunning
		js.StartedAt = time.Now().UTC()
	})
}

func (t *Tracker) jobDone(r Result) {
	id := (&Job{Bench: r.Bench, Tech: r.Tech, Point: r.Point}).ID()
	// The hit counters move inside the same critical section as the
	// state change, so a Snapshot never sees Done ahead of
	// Executed+CacheHits+DedupHits.
	t.update(id, func(js *JobStatus) {
		js.State = JobDone
		js.Cached = r.Cached
		js.Dedup = r.Dedup
		js.IPC = r.Stats.IPC()
		switch {
		case r.Dedup:
			t.stat.DedupHits++
		case r.Cached:
			t.stat.CacheHits++
		default:
			t.stat.Executed++
			t.stat.CommittedInsts += r.Stats.CommittedReal
		}
		if r.Cached || r.Dedup {
			// Served, not simulated: the result's own stamps belong to
			// the execution that populated it.
			js.FinishedAt = time.Now().UTC()
		} else {
			js.StartedAt, js.FinishedAt = r.StartedAt, r.FinishedAt
		}
	})
}

func (t *Tracker) jobFailed(j *Job, err error) {
	t.update(j.ID(), func(js *JobStatus) {
		js.State = JobFailed
		js.Error = err.Error()
		js.FinishedAt = time.Now().UTC()
	})
}

// Restore primes the tracker with job statuses recovered from durable
// state (the final job roster in the campaign service's terminal
// record): each known job's status is replaced wholesale and the
// aggregate counters are rebuilt from it, as if the transitions had
// been observed live. Unknown IDs are ignored
// (spec drift across restarts loses those jobs' history, nothing more).
// OnChange is not fired: restoration is priming, not progress.
func (t *Tracker) Restore(jobs []JobStatus) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, js := range jobs {
		cur, ok := t.jobs[js.ID]
		if !ok {
			continue
		}
		t.leave(cur.State)
		*cur = js
		t.enter(js.State)
		if js.State == JobDone {
			switch {
			case js.Dedup:
				t.stat.DedupHits++
			case js.Cached:
				t.stat.CacheHits++
			default:
				t.stat.Executed++
			}
		}
	}
}

// FinishSkipped marks every job still pending or running as skipped —
// called once the campaign has returned, so a cancelled campaign's
// status doesn't report abandoned jobs as forever pending.
func (t *Tracker) FinishSkipped() {
	t.mu.Lock()
	var changed []JobStatus
	for _, id := range t.order {
		js := t.jobs[id]
		if js.State == JobPending || js.State == JobRunning {
			t.leave(js.State)
			js.State = JobSkipped
			t.enter(JobSkipped)
			changed = append(changed, *js)
		}
	}
	cb := t.OnChange
	t.mu.Unlock()
	if cb != nil {
		for _, js := range changed {
			cb(js)
		}
	}
}

// Snapshot returns the current progress, with per-job detail in
// campaign job order.
func (t *Tracker) Snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.stat
	out.Jobs = make([]JobStatus, 0, len(t.order))
	for _, id := range t.order {
		out.Jobs = append(out.Jobs, *t.jobs[id])
	}
	return out
}

// Summary is Snapshot without the per-job roster — O(1), for listings
// over many large campaigns.
func (t *Tracker) Summary() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stat
}
