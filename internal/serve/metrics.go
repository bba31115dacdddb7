package serve

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// metrics are the service's fleet-wide counters, exposed in Prometheus
// text exposition format at /metrics. All counters are monotonic over
// the process lifetime.
type metrics struct {
	start time.Time

	campaignsSubmitted atomic.Int64
	campaignsDone      atomic.Int64
	campaignsFailed    atomic.Int64
	campaignsActive    atomic.Int64
	campaignsRejected  atomic.Int64 // quota / drain refusals

	jobsExecuted atomic.Int64
	jobsFailed   atomic.Int64
	cacheHits    atomic.Int64
	dedupHits    atomic.Int64

	instsCommitted atomic.Int64 // committed real instructions simulated
	simNanos       atomic.Int64 // wall nanoseconds spent inside simulations

	// Remote worker pool (see dispatcher).
	workersRegistered atomic.Int64 // workers admitted by a lease poll
	leasesGranted     atomic.Int64 // jobs handed to workers
	leasesExpired     atomic.Int64 // leases that missed their TTL (dead worker)
	leaseRequeues     atomic.Int64 // jobs put back on the queue after a failed lease
	jobsRemote        atomic.Int64 // jobs completed by workers (validated uploads)
	jobsLocal         atomic.Int64 // jobs completed by the coordinator's own slots
	workerJobFailures atomic.Int64 // worker-reported execution errors
	resultsRejected   atomic.Int64 // uploads from a non-holder or failing JobKey/identity validation
	lateUploads       atomic.Int64 // uploads against expired or unknown leases
	campaignsDeleted  atomic.Int64 // campaigns dropped via DELETE

	// Checkpoint store wire traffic (store-side counters live in ckpt).
	ckptBytesShipped atomic.Int64 // artifact bytes served to / accepted from workers

	// Durability and state bounds.
	campaignsRecovered atomic.Int64 // campaigns resumed from durable state at boot
	campaignsEvicted   atomic.Int64 // finished campaigns evicted by the registry bound
	cacheEvictions     atomic.Int64 // result-cache entries evicted by the byte bound

	// Identity.
	authFailures atomic.Int64 // requests refused 401/403 (bad token or wrong role)
}

// instsPerSecond is the service's aggregate simulation rate: committed
// real instructions per wall-clock second spent actually simulating
// (not per uptime second, which would dilute idle servers to zero).
func (m *metrics) instsPerSecond() float64 {
	ns := m.simNanos.Load()
	if ns <= 0 {
		return 0
	}
	return float64(m.instsCommitted.Load()) / (float64(ns) / float64(time.Second))
}

// row is one Prometheus sample with its metadata.
type row struct {
	name, help, typ string
	value           float64
}

// rows renders every counter; live gauges from other subsystems (the
// dispatcher) are appended by the server's /metrics handler.
func (m *metrics) rows() []row {
	return []row{
		{"sdiqd_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(m.start).Seconds()},
		{"sdiqd_campaigns_submitted_total", "Campaigns accepted for execution.", "counter", float64(m.campaignsSubmitted.Load())},
		{"sdiqd_campaigns_done_total", "Campaigns that completed successfully.", "counter", float64(m.campaignsDone.Load())},
		{"sdiqd_campaigns_failed_total", "Campaigns that finished with an error.", "counter", float64(m.campaignsFailed.Load())},
		{"sdiqd_campaigns_rejected_total", "Submissions refused (quota or drain).", "counter", float64(m.campaignsRejected.Load())},
		{"sdiqd_campaigns_active", "Campaigns currently running.", "gauge", float64(m.campaignsActive.Load())},
		{"sdiqd_jobs_executed_total", "Jobs actually simulated (cache and dedup hits excluded).", "counter", float64(m.jobsExecuted.Load())},
		{"sdiqd_jobs_failed_total", "Jobs that finished with an error.", "counter", float64(m.jobsFailed.Load())},
		{"sdiqd_job_cache_hits_total", "Jobs served from the on-disk result cache.", "counter", float64(m.cacheHits.Load())},
		{"sdiqd_job_dedup_hits_total", "Jobs shared from a concurrent identical execution.", "counter", float64(m.dedupHits.Load())},
		{"sdiqd_insts_committed_total", "Committed real instructions simulated.", "counter", float64(m.instsCommitted.Load())},
		{"sdiqd_insts_per_second", "Aggregate simulation rate over wall time spent simulating.", "gauge", m.instsPerSecond()},
		{"sdiqd_workers_registered_total", "Workers admitted to the pool by a lease poll.", "counter", float64(m.workersRegistered.Load())},
		{"sdiqd_leases_granted_total", "Jobs handed to remote workers.", "counter", float64(m.leasesGranted.Load())},
		{"sdiqd_leases_expired_total", "Leases that missed their TTL (worker presumed dead).", "counter", float64(m.leasesExpired.Load())},
		{"sdiqd_lease_requeues_total", "Jobs re-queued after a failed, expired or rejected lease.", "counter", float64(m.leaseRequeues.Load())},
		{"sdiqd_jobs_remote_total", "Jobs completed by remote workers (validated uploads).", "counter", float64(m.jobsRemote.Load())},
		{"sdiqd_jobs_local_total", "Jobs completed in-process by the coordinator's own slots.", "counter", float64(m.jobsLocal.Load())},
		{"sdiqd_worker_job_failures_total", "Worker-reported execution errors.", "counter", float64(m.workerJobFailures.Load())},
		{"sdiqd_results_rejected_total", "Uploads rejected: sent by a worker not holding the lease, or failing JobKey/identity validation.", "counter", float64(m.resultsRejected.Load())},
		{"sdiqd_late_uploads_total", "Uploads against expired or unknown leases, discarded.", "counter", float64(m.lateUploads.Load())},
		{"sdiqd_campaigns_deleted_total", "Campaigns dropped from the registry via DELETE.", "counter", float64(m.campaignsDeleted.Load())},
		{"sdiqd_campaigns_recovered_total", "Campaigns resumed from durable state at boot.", "counter", float64(m.campaignsRecovered.Load())},
		{"sdiqd_campaigns_evicted_total", "Finished campaigns evicted by the registry bound on finished jobs, at finish or at boot.", "counter", float64(m.campaignsEvicted.Load())},
		{"sdiqd_result_cache_evictions_total", "Result-cache entries evicted by the byte bound.", "counter", float64(m.cacheEvictions.Load())},
		{"sdiqd_auth_failures_total", "Requests refused with 401/403 (bad token or wrong role).", "counter", float64(m.authFailures.Load())},
	}
}

// writeRows emits rows in the Prometheus text exposition format.
func writeRows(w http.ResponseWriter, rows []row) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", r.name, r.help, r.name, r.typ, r.name, r.value)
	}
}

// labelRow is one Prometheus sample carrying a label set (the
// per-tenant rows). labels is pre-rendered, e.g. `{tenant="alice"}`.
type labelRow struct {
	name, help, typ string
	labels          string
	value           float64
}

// writeLabelRows emits labeled samples, writing each metric's HELP/TYPE
// header once even when many label sets share the name.
func writeLabelRows(w http.ResponseWriter, rows []labelRow) {
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		if !seen[r.name] {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", r.name, r.help, r.name, r.typ)
			seen[r.name] = true
		}
		fmt.Fprintf(w, "%s%s %g\n", r.name, r.labels, r.value)
	}
}
