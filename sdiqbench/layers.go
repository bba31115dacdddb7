package main

// perLayerUnits lists every per-layer metric with its unit. Every
// traced run reports all of them, zero where a layer does no work on
// its workload (the prediction, for most pairings). Counts and summed
// times are per campaign, medians per job, request or lease, and
// fractions over the traced pass; WORKLOADS.md defines each.
var perLayerUnits = map[string]string{
	"campaign.executed":         "count",
	"campaign.cache_hits":       "count",
	"campaign.dedup_hits":       "count",
	"campaign.failed":           "count",
	"campaign.job_ms.p50":       "ms",
	"campaign.job_ms.tail":      "ms",
	"campaign.wait_ms.p50":      "ms",
	"campaign.busy_frac":        "fraction",
	"campaign.cache_get_ms.p50": "ms",
	"campaign.cache_put_ms.p50": "ms",
	"workload.gen_ms":           "ms",
	"core.compile_ms":           "ms",
	"core.hints":                "count",
	"sim.exact_ms":              "ms",
	"sim.minst_per_s":           "Minst/s",
	"sample.batches":            "count",
	"sample.windows":            "count",
	"sample.detailed_frac":      "fraction",
	"sample.batch_ms":           "ms",
	"sample.functional_ms":      "ms",
	"sample.detail_ms":          "ms",
	"sample.ipc_err_pct":        "%",
	"emu.stream_ms":             "ms",
	"ckpt.generated":            "count",
	"ckpt.hits":                 "count",
	"ckpt.misses":               "count",
	"ckpt.hit_ratio":            "fraction",
	"ckpt.bytes_written":        "bytes",
	"ckpt.bytes_read":           "bytes",
	"serve.cells_requested":     "count",
	"serve.submit_ms.p50":       "ms",
	"serve.export_ms.p50":       "ms",
	"serve.queue_ms.p50":        "ms",
	"serve.lease_wait_ms.p50":   "ms",
	"serve.upload_ms.p50":       "ms",
	"serve.jobs_executed":       "count",
	"serve.jobs_remote":         "count",
	"serve.jobs_local":          "count",
	"serve.jobs_failed":         "count",
	"serve.cache_hits":          "count",
	"serve.dedup_hits":          "count",
	"serve.leases_granted":      "count",
	"serve.lease_requeues":      "count",
	"serve.jobs_fellback":       "count",
	"serve.ckpt_bytes_shipped":  "bytes",
	"serve.ckpt_bytes_per_job":  "bytes",
	"worker.leases":             "count",
	"worker.exec_ms.p50":        "ms",
	"worker.busy_frac":          "fraction",
	"store.wal_appends":         "count",
	"store.appends_per_job":     "count",
	"auth.failures":             "count",
	"self.campaign_frac":        "fraction",
	"self.workload_frac":        "fraction",
	"self.core_frac":            "fraction",
	"self.sim_frac":             "fraction",
	"self.sample_frac":          "fraction",
	"self.emu_frac":             "fraction",
	"self.ckpt_frac":            "fraction",
	"self.serve_frac":           "fraction",
	"self.worker_frac":          "fraction",
	"trace.idle_frac":           "fraction",
	"trace.unexplained_frac":    "fraction",
	"trace.overhead_s":          "s",
	"trace.spans":               "count",
}

// zeroLayers records every per-layer metric as 0, for a run to
// overwrite those its workload exercises.
func (o *outcome) zeroLayers() {
	for name := range perLayerUnits {
		o.layer(name, 0)
	}
}
