package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/campaign"
)

// parentSpec is the spec of the campaigns in testdata: gzip × baseline
// over the given IQ sizes, at a 20k budget, sampled.
func parentSpec(iq ...int) campaign.Spec {
	spec := sampledSpec("parent", []string{"gzip"}, iq...)
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	return spec
}

// TestParentBuildStores is the on-disk layout gate. testdata/parent
// holds the result cache, checkpoint store and -state directory that
// an earlier build's server left after one finished sampled campaign:
// gzip × baseline × IQ {48, 64} at a 20k budget. A server started over
// copies of them recovers that campaign from its cached results alone.
// The artifact is in checkpoint format 2, so a new cell of the same
// warming identity refuses it and regenerates it, once, and a second
// new cell resumes from the regenerated artifact; both export
// byte-identically to a local run.
func TestParentBuildStores(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/parent")); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, Config{
		CacheDir: filepath.Join(dir, "cache"),
		CkptDir:  filepath.Join(dir, "ckpt"),
		StateDir: filepath.Join(dir, "state"),
		Workers:  2,
	})
	ctx := context.Background()

	waitStatus(t, cl, "c0001", "done", func(info CampaignInfo) bool { return info.Done })
	got, err := cl.Export(ctx, "c0001", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, localCSV(t, parentSpec(48, 64))) {
		t.Errorf("recovered parent campaign differs from a local run:\n%s", got)
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_jobs_executed_total"); v != 0 {
		t.Errorf("sdiqd_jobs_executed_total = %g, want 0 (every result from the parent's cache)", v)
	}
	if v := metricValue(t, text, "sdiqd_job_cache_hits_total"); v != 2 {
		t.Errorf("sdiqd_job_cache_hits_total = %g, want 2", v)
	}

	for _, tc := range []struct {
		iq                       int
		hits, generated, evicted float64
	}{
		{56, 0, 1, 1}, // the parent's format-2 artifact is evicted and regenerated
		{40, 1, 1, 1}, // the regenerated artifact resumes
	} {
		rs, err := cl.Run(ctx, parentSpec(tc.iq))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvOf(t, rs), localCSV(t, parentSpec(tc.iq))) {
			t.Errorf("IQ %d: cell differs from a local run", tc.iq)
		}
		text = fetchMetrics(t, cl)
		for name, want := range map[string]float64{
			"sdiqd_ckpt_hits_total":      tc.hits,
			"sdiqd_ckpt_generated_total": tc.generated,
			"sdiqd_ckpt_evicted_total":   tc.evicted,
		} {
			if v := metricValue(t, text, name); v != want {
				t.Errorf("IQ %d: %s = %g, want %g", tc.iq, name, v, want)
			}
		}
	}
}

// TestParentBuildRunningCampaign recovers a campaign that a build
// logging every job-state change to a wal.log left mid-run.
// testdata/parent_running holds that build's campaign c0002 over
// c0001's spec: its meta.json, a snap.json without done (one job
// finished) and a CRC-framed wal.log recording the other job's start.
// Copied over testdata/parent, both campaigns re-run from the parent's
// cache alone and export byte-identically to a local run, and neither
// wal.log is written.
func TestParentBuildRunningCampaign(t *testing.T) {
	dir := t.TempDir()
	for _, src := range []string{"testdata/parent", "testdata/parent_running"} {
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
	}
	state := filepath.Join(dir, "state")
	wals := map[string][]byte{}
	for _, id := range []string{"c0001", "c0002"} {
		blob, err := os.ReadFile(filepath.Join(state, "campaigns", id, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		wals[id] = blob
	}
	if len(wals["c0002"]) == 0 {
		t.Fatal("fixture c0002 has an empty wal.log")
	}

	s, cl := startServer(t, Config{
		CacheDir: filepath.Join(dir, "cache"),
		StateDir: state,
		Workers:  2,
	})
	ctx := context.Background()
	want := localCSV(t, parentSpec(48, 64))
	for _, id := range []string{"c0001", "c0002"} {
		waitStatus(t, cl, id, "done", func(info CampaignInfo) bool { return info.Done })
		got, err := cl.Export(ctx, id, "csv")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("recovered %s differs from a local run:\n%s", id, got)
		}
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_campaigns_recovered_total"); v != 2 {
		t.Errorf("sdiqd_campaigns_recovered_total = %g, want 2", v)
	}
	if v := metricValue(t, text, "sdiqd_jobs_executed_total"); v != 0 {
		t.Errorf("sdiqd_jobs_executed_total = %g, want 0 (every result from the parent's cache)", v)
	}
	if v := metricValue(t, text, "sdiqd_job_cache_hits_total"); v != 4 {
		t.Errorf("sdiqd_job_cache_hits_total = %g, want 4", v)
	}

	killServer(s)
	for id, before := range wals {
		after, err := os.ReadFile(filepath.Join(state, "campaigns", id, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Errorf("%s: wal.log written by the new build:\n before %q\n after  %q", id, before, after)
		}
		if got, want := campaignFiles(t, state, id), []string{"meta.json", "snap.json", "wal.log"}; !slices.Equal(got, want) {
			t.Errorf("%s: durable state = %v, want %v", id, got, want)
		}
	}
}
