package serve

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// TestServiceSoakConcurrentCampaigns is the PR's acceptance gate and
// the regression cover for the singleflight path, the atomic cache
// writes and the job queue: ten campaigns from ten clients hit one
// server — eight identical grids plus two sweeps whose single point
// (iq.entries=80) derives the *same* configurations as the base grid —
// all sharing one cache directory, one in-flight dedup group and one
// job queue. It runs twice: with no fleet, where the coordinator's own
// slots run every job, and with three remote workers of two leases
// each, where the fleet runs every job.
//
// Required outcomes:
//   - every campaign completes with a full result set;
//   - zero duplicate simulations of identical JobKeys fleet-wide: the
//     number of executed jobs equals the number of unique keys, and
//     every other delivery is a cache or dedup hit (>= 1 of each kind
//     of reuse overall);
//   - every execution is accounted to the fleet or the slots, and with
//     a healthy fleet none to the slots; no lease ever fails;
//   - the eight identical campaigns' CSV exports are byte-identical to
//     each other and to the same spec run locally with the engine.
//
// Run under -race (CI does) this also soaks the shared-state paths: the
// Flight, the queue's two kinds of taker, lease grants, heartbeat
// renewal, upload validation, progress callbacks and the on-disk cache.
func TestServiceSoakConcurrentCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	baseSpec := func() campaign.Spec {
		spec := campaign.DefaultSpec(5_000)
		spec.Name = "soak"
		spec.Benchmarks = []string{"gzip", "mcf"}
		spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
		return spec
	}
	sweepSpec := func() campaign.Spec {
		spec := baseSpec()
		spec.Name = "soak-sweep"
		// One sweep point at the base IQ size: different campaign and
		// sweep coordinates, identical derived configurations — the
		// overlapping-grid case the dedup key is designed to collapse.
		spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: []int{80}}}
		return spec
	}
	// Sanity: the sweep really does collapse onto the base grid's keys.
	base, sweep := baseSpec(), sweepSpec()
	baseJobs, err := base.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	sweepJobs, err := sweep.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	uniqueKeys := map[string]bool{}
	for _, jobs := range [][]campaign.Job{baseJobs, sweepJobs} {
		for i := range jobs {
			k, err := campaign.JobKey(&jobs[i], baseSpec().Params)
			if err != nil {
				t.Fatal(err)
			}
			uniqueKeys[k] = true
		}
	}
	if len(uniqueKeys) != len(baseJobs) {
		t.Fatalf("sweep point does not collapse onto base keys: %d unique, want %d",
			len(uniqueKeys), len(baseJobs))
	}
	local := localCSV(t, baseSpec())

	for _, tc := range []struct {
		name  string
		fleet int // remote workers, two leases each
	}{{"no_fleet", 0}, {"fleet_of_3", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			_, cl := startServer(t, Config{
				CacheDir:   t.TempDir(),
				Workers:    4,
				LeaseTTL:   2 * time.Second,
				WorkerTTL:  60 * time.Second,
				JobRetries: 2,
			})
			ctx := context.Background()
			for i := range tc.fleet {
				startWorker(t, cl.Base, fmt.Sprintf("fleet-%d", i), 2, nil)
			}
			waitMetric(t, cl, "sdiqd_workers_connected", float64(tc.fleet))

			const identical = 8
			const sweeps = 2
			type outcome struct {
				csv []byte
				err error
			}
			outs := make([]outcome, identical+sweeps)
			var wg sync.WaitGroup
			for i := range outs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := NewClient(cl.Base)
					c.ID = fmt.Sprintf("client-%d", i)
					spec := baseSpec()
					if i >= identical {
						spec = sweepSpec()
					}
					sub, err := c.Submit(ctx, spec)
					if err != nil {
						outs[i].err = err
						return
					}
					if err := c.Stream(ctx, sub.ID, func(Event) error { return nil }); err != nil {
						outs[i].err = err
						return
					}
					outs[i].csv, outs[i].err = c.Export(ctx, sub.ID, "csv")
				}(i)
			}
			wg.Wait()
			for i, o := range outs {
				if o.err != nil {
					t.Fatalf("campaign %d: %v", i, o.err)
				}
			}

			// Byte-identical exports across the identical campaigns, and
			// vs a local engine run of the same spec.
			for i := 0; i < identical; i++ {
				if !bytes.Equal(outs[i].csv, local) {
					t.Errorf("campaign %d CSV differs from the local run:\n%s\nvs local:\n%s",
						i, outs[i].csv, local)
				}
			}
			for i := identical + 1; i < identical+sweeps; i++ {
				if !bytes.Equal(outs[i].csv, outs[identical].csv) {
					t.Errorf("sweep campaign %d CSV differs from sweep campaign %d", i, identical)
				}
			}

			// Zero duplicate simulations: executed == unique keys;
			// everything else was served from cache or a concurrent
			// identical execution.
			text := fetchMetrics(t, cl)
			executed := metricValue(t, text, "sdiqd_jobs_executed_total")
			cacheHits := metricValue(t, text, "sdiqd_job_cache_hits_total")
			dedupHits := metricValue(t, text, "sdiqd_job_dedup_hits_total")
			totalJobs := float64((identical + sweeps) * len(baseJobs))
			if executed != float64(len(uniqueKeys)) {
				t.Errorf("executed %g simulations for %d unique keys: duplicate simulation slipped through dedup",
					executed, len(uniqueKeys))
			}
			if executed+cacheHits+dedupHits != totalJobs {
				t.Errorf("job accounting off: %g executed + %g cache + %g dedup != %g total",
					executed, cacheHits, dedupHits, totalJobs)
			}
			if cacheHits+dedupHits == 0 {
				t.Error("no cache or dedup reuse at all in a 10-campaign soak")
			}
			if failed := metricValue(t, text, "sdiqd_jobs_failed_total"); failed != 0 {
				t.Errorf("%g jobs failed", failed)
			}

			// Every execution ran on the fleet or on a slot: all on the
			// slots without a fleet, none on them beside a healthy one.
			remote := metricValue(t, text, "sdiqd_jobs_remote_total")
			localJobs := metricValue(t, text, "sdiqd_jobs_local_total")
			if remote+localJobs != executed {
				t.Errorf("execution-path accounting off: %g remote + %g local != %g executed",
					remote, localJobs, executed)
			}
			if tc.fleet == 0 && localJobs != executed {
				t.Errorf("local jobs = %g, want all %g: with no fleet the slots run every job", localJobs, executed)
			}
			if tc.fleet > 0 && localJobs != 0 {
				t.Errorf("local jobs = %g, want 0: the slots took jobs from a healthy fleet", localJobs)
			}
			if expired := metricValue(t, text, "sdiqd_leases_expired_total"); expired != 0 {
				t.Errorf("%g leases expired under a healthy fleet", expired)
			}
			if rejected := metricValue(t, text, "sdiqd_results_rejected_total"); rejected != 0 {
				t.Errorf("%g uploads rejected from honest workers", rejected)
			}
		})
	}
}
