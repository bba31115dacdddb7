// Package worker is the remote half of the campaign service's
// distributed simulation: a pull-based worker that leases jobs from a
// sdiqd server over HTTP, runs them with the exact executor the local
// engine uses (against local scratch stores), streams heartbeats while
// a job runs, and uploads the finished campaign.Result. The server
// validates every upload against the job's content hash
// (campaign.JobKey) before the result enters the shared cache, so a
// byzantine or stale worker can never corrupt it.
//
// Wire protocol (JSON over the server's existing HTTP listener, except
// the opaque checkpoint artifacts):
//
//	POST   /v1/leases               LeaseRequest     → Lease | 204 (none)
//	POST   /v1/leases/{id}/heartbeat  Heartbeat      → HeartbeatResponse
//	POST   /v1/leases/{id}/result   ResultUpload     → ResultResponse
//	GET    /v1/checkpoints/{key}?lease={id}          → artifact
//	PUT    /v1/checkpoints/{key}?lease={id}  artifact → 204
//	DELETE /v1/workers/{id}         leave (requeues live leases)
//
// A worker names itself. Every lease request carries its ID, capacity
// and protocol version, and the server admits an ID it does not hold at
// that poll: joining the fleet, and rejoining a restarted server, is
// the next poll. The request long-polls: the server holds it open until
// a job is available or the wait expires. A lease lives DeadlineMS from
// grant, the worker heartbeats every third of that, and every accepted
// heartbeat re-arms it; a lease that outlives its TTL is presumed dead,
// and its job is re-queued for another worker (bounded retries, then
// the server runs it locally). A late upload against an expired lease
// is answered 410 Gone and discarded. An artifact request names the
// live lease whose job carries the artifact's key.
package worker

import (
	"repro/internal/campaign"
	"repro/internal/power"
	"repro/internal/sim"
)

// ProtocolVersion guards wire compatibility: the server refuses lease
// polls from workers speaking a different version (400), which turns a
// skewed-binary fleet into a clean startup error instead of subtle
// result corruption.
//
// Version 2 adds transport-layer bearer authentication: against a
// server started with -auth, every request — lease, heartbeat, upload,
// checkpoint GET/PUT, leave — carries "Authorization: Bearer <token>"
// for a worker-role principal.
//
// Version 3 joins a worker at its lease poll, with no registration: a
// LeaseRequest names its worker with an ID the worker picked and
// carries its capacity and version. The heartbeat period is a third of
// Lease.DeadlineMS, and a Lease names the namespace of the campaign its
// job serves.
const ProtocolVersion = 3

// LeaseRequest asks for the next job, long-polling up to WaitMS. It
// says all the server knows of a worker: the server admits a WorkerID
// it does not hold at this poll, and each poll refreshes the worker's
// capacity and liveness.
type LeaseRequest struct {
	// WorkerID names the worker in every request. The worker picks it,
	// in the grammar of auth.ValidName ([a-z0-9._-]{1,64}).
	WorkerID string `json:"worker_id"`
	// Capacity is how many jobs the worker runs concurrently; the server
	// uses the fleet total to size campaign parallelism.
	Capacity int `json:"capacity"`
	// Protocol is the worker's ProtocolVersion.
	Protocol int `json:"protocol"`
	// WaitMS bounds the long poll; 0 means the server's longest wait.
	WaitMS int64 `json:"wait_ms"`
}

// Lease is one granted job: the complete job identity travels with the
// work, so the worker can rebuild and verify it independently.
type Lease struct {
	// ID names the lease in heartbeats and the result upload.
	ID string `json:"id"`
	// Key is the job's content hash (campaign.JobKey). The worker
	// recomputes it from Job and refuses mismatches — a conformance
	// self-check that catches protocol or version drift before any
	// simulation time is spent.
	Key string `json:"key"`
	// Attempt counts leases of this job, starting at 1; retries after a
	// failed or expired lease increment it.
	Attempt int `json:"attempt"`
	// DeadlineMS is the lease TTL from grant; the worker heartbeats
	// every third of it.
	DeadlineMS int64 `json:"deadline_ms"`
	// Namespace names the server namespace of the campaign the job
	// serves: "" for the shared one, the tenant's name under
	// -tenant-isolation. The worker keeps a result cache and a
	// checkpoint store per namespace, so one tenant's work never answers
	// another's lease.
	Namespace string `json:"namespace,omitempty"`
	// CkptKey, when non-empty, is the job's checkpoint artifact key
	// (campaign.CheckpointKey): while it holds the lease, the worker may
	// GET the artifact from /v1/checkpoints/{key}?lease={ID} to resume
	// sampling without re-warming, and may PUT one it generated back for
	// the rest of the sweep. Absent for exact jobs and on servers
	// without a checkpoint store.
	CkptKey string `json:"ckpt_key,omitempty"`
	// Job is the work itself.
	Job JobSpec `json:"job"`
}

// JobSpec is the wire form of a campaign.Job plus the campaign's power
// parameters (part of the job's cache identity).
type JobSpec struct {
	Bench    string             `json:"bench"`
	Tech     campaign.Technique `json:"tech"`
	Point    campaign.Point     `json:"point,omitempty"`
	Config   sim.Config         `json:"config"`
	Budget   int64              `json:"budget"`
	Seed     int64              `json:"seed"`
	Sampling *campaign.Sampling `json:"sampling,omitempty"`
	Params   power.Params       `json:"params"`
}

// JobSpecOf converts an engine job to its wire form. The config's probe
// is dropped: probes are in-process attachments and never cross the
// wire (JobKey already excludes them).
func JobSpecOf(j *campaign.Job, params power.Params) JobSpec {
	cfg := j.Config
	cfg.Probe = nil
	return JobSpec{
		Bench:    j.Bench,
		Tech:     j.Tech,
		Point:    j.Point,
		Config:   cfg,
		Budget:   j.Budget,
		Seed:     j.Seed,
		Sampling: j.Sampling,
		Params:   params,
	}
}

// Job rebuilds the engine job this spec describes.
func (s *JobSpec) Job() campaign.Job {
	return campaign.Job{
		Bench:    s.Bench,
		Tech:     s.Tech,
		Point:    s.Point,
		Config:   s.Config,
		Budget:   s.Budget,
		Seed:     s.Seed,
		Sampling: s.Sampling,
	}
}

// Heartbeat keeps a lease alive. It names only the worker that holds
// the lease: the server measures each executed job's rate from its
// result, leased or not.
type Heartbeat struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// Cancel tells the worker to abandon the job: its campaign is gone
	// (cancelled or already satisfied elsewhere).
	Cancel bool `json:"cancel,omitempty"`
	// DeadlineMS is the renewed lease TTL from now.
	DeadlineMS int64 `json:"deadline_ms"`
}

// ResultUpload completes a lease: either a finished result or the
// worker's error. Exactly one of Result and Error is set.
type ResultUpload struct {
	WorkerID string `json:"worker_id"`
	// Key echoes the lease's job hash; the server re-validates it (and
	// the result's identity fields) against the job it actually leased.
	Key string `json:"key"`
	// Error reports a failed execution; the server re-queues the job.
	Error string `json:"error,omitempty"`
	// Result is the finished job's result.
	Result *campaign.Result `json:"result,omitempty"`
}

// ResultResponse acknowledges an upload.
type ResultResponse struct {
	// Accepted means the result entered the campaign (and will enter the
	// shared cache).
	Accepted bool `json:"accepted"`
	// Requeued means the job went back on the queue (failed or rejected
	// upload).
	Requeued bool `json:"requeued,omitempty"`
}
