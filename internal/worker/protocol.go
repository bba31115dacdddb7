// Package worker is the remote half of the campaign service's
// distributed simulation: a pull-based worker that registers with a
// sdiqd server, leases jobs over HTTP, runs them with the exact
// executor the local engine uses (against a local scratch cache),
// streams heartbeats while a job runs, and uploads the finished
// campaign.Result. The server validates every upload against the job's
// content hash (campaign.JobKey) before the result enters the shared
// cache, so a byzantine or stale worker can never corrupt it.
//
// Wire protocol (JSON over the server's existing HTTP listener, except
// the opaque checkpoint artifacts):
//
//	POST   /v1/workers              RegisterRequest  → RegisterResponse
//	DELETE /v1/workers/{id}         deregister (requeues live leases)
//	POST   /v1/leases               LeaseRequest     → Lease | 204 (none)
//	POST   /v1/leases/{id}/heartbeat  Heartbeat      → HeartbeatResponse
//	POST   /v1/leases/{id}/result   ResultUpload     → ResultResponse
//	GET    /v1/checkpoints/{key}?lease={id}          → artifact
//	PUT    /v1/checkpoints/{key}?lease={id}  artifact → 204
//
// The lease request long-polls: the server holds it open until a job is
// available or the wait expires. A lease lives LeaseTTLMS from grant and
// every accepted heartbeat re-arms it; a lease that outlives its TTL is
// presumed dead, and its job is re-queued for another worker (bounded
// retries, then the server runs it locally). A late upload against an
// expired lease is answered 410 Gone and discarded. An artifact request
// names the live lease whose job carries the artifact's key.
package worker

import (
	"repro/internal/campaign"
	"repro/internal/power"
	"repro/internal/sim"
)

// ProtocolVersion guards wire compatibility: the server refuses
// registrations from workers speaking a different version, which turns
// a skewed-binary fleet into a clean startup error instead of subtle
// result corruption.
//
// Version 2 adds transport-layer bearer authentication: against a
// server started with -auth, every request — register, lease,
// heartbeat, upload, checkpoint GET/PUT — carries
// "Authorization: Bearer <token>" for a worker-role principal. The
// wire bodies are unchanged; version 1 workers are refused at
// registration because they cannot know to send the credential.
const ProtocolVersion = 2

// RegisterRequest announces a worker to the server.
type RegisterRequest struct {
	// Name labels the worker in logs and metrics (hostname by default).
	Name string `json:"name"`
	// Capacity is how many jobs the worker runs concurrently; the server
	// uses the fleet total to size campaign parallelism.
	Capacity int `json:"capacity"`
	// Protocol is the worker's ProtocolVersion.
	Protocol int `json:"protocol"`
	// Reconnects counts this worker's re-registrations after losing the
	// coordinator (0 on first contact) — the server surfaces the fleet's
	// churn in its metrics.
	Reconnects int `json:"reconnects,omitempty"`
}

// RegisterResponse hands the worker its identity and the protocol's
// timing contract.
type RegisterResponse struct {
	// WorkerID names this worker in every subsequent request.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long a granted lease lives without a heartbeat.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// HeartbeatMS is how often the worker must heartbeat a running job.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// MaxPollMS caps the long-poll wait the server will honour.
	MaxPollMS int64 `json:"max_poll_ms"`
}

// LeaseRequest asks for the next job, long-polling up to WaitMS.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms"`
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
	// DeadlineMS is the lease TTL from grant.
	DeadlineMS int64 `json:"deadline_ms"`
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
