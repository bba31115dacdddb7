package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
)

// TestParentBuildStores is the on-disk layout gate. testdata/parent
// holds the result cache, checkpoint store and -state directory that
// the previous build's server left after one finished sampled campaign:
// gzip × baseline × IQ {48, 64} at a 20k budget. A server started over
// copies of them recovers that campaign from its cached results alone,
// and a new cell of the same warming identity resumes from its
// artifact.
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
	parentSpec := func(iq ...int) campaign.Spec {
		spec := sampledSpec("parent", []string{"gzip"}, iq...)
		spec.Techniques = []campaign.Technique{campaign.TechBaseline}
		return spec
	}

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

	rs, err := cl.Run(ctx, parentSpec(56))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, rs), localCSV(t, parentSpec(56))) {
		t.Error("cell resumed from the parent's artifact differs from a local run")
	}
	text = fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_ckpt_hits_total"); v != 1 {
		t.Errorf("sdiqd_ckpt_hits_total = %g, want 1 (resumed from the parent's artifact)", v)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_generated_total"); v != 0 {
		t.Errorf("sdiqd_ckpt_generated_total = %g, want 0", v)
	}
}
