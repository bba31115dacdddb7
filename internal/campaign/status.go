package campaign

import "time"

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
