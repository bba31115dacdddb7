// Checkpoint store integration: artifact shipping endpoints, DELETE-time
// garbage collection, and fleet-wide warm-state sharing. The sharing test
// ends on the same oracle as the failure suite — a remote campaign that
// resumed from shipped artifacts must export byte-identically to a plain
// local run — and the whole file runs under -race in CI.
package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/worker"
)

// sampledSpec is a small sampled sweep: benchmarks x techniques x an IQ
// axis whose cells share warming identities.
func sampledSpec(name string, benches []string, iqEntries ...int) campaign.Spec {
	spec := campaign.DefaultSpec(20_000)
	spec.Name = name
	spec.Benchmarks = benches
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: iqEntries}}
	spec.Sampling = &campaign.Sampling{Window: 500, Period: 4000, Warmup: 1000, DetailWarmup: 250}
	return spec
}

// rawCkpt issues a bare HTTP request against the checkpoint endpoints,
// returning status and body (no client-side error mapping).
func rawCkpt(t *testing.T, cl *Client, method, key string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cl.Base+"/v1/checkpoints/"+key, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// grantKey marks key as leased, the precondition for uploads.
func grantKey(s *Server, key string) {
	s.disp.mu.Lock()
	s.disp.ckptGranted[key] = s.ckpt
	s.disp.mu.Unlock()
}

func TestCheckpointEndpoints(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), CkptDir: t.TempDir(), Workers: 2})
	key := "1111222233334444555566667777888899990000aaaabbbbccccddddeeeeffff"

	if code, _ := rawCkpt(t, cl, http.MethodGet, key, nil); code != http.StatusNotFound {
		t.Errorf("GET missing artifact = %d, want 404", code)
	}
	if code, _ := rawCkpt(t, cl, http.MethodGet, "..%2F..%2Fetc%2Fpasswd", nil); code != http.StatusNotFound {
		t.Errorf("GET traversal key = %d, want 404", code)
	}
	// An upload for a key the server never leased is refused outright.
	if code, _ := rawCkpt(t, cl, http.MethodPut, key, []byte("data")); code != http.StatusForbidden {
		t.Errorf("PUT unleased key = %d, want 403", code)
	}

	// Once granted, the container is still validated before publishing.
	grantKey(s, key)
	if code, _ := rawCkpt(t, cl, http.MethodPut, key, []byte("not an artifact")); code != http.StatusUnprocessableEntity {
		t.Errorf("PUT garbage = %d, want 422", code)
	}
	if s.ckpt.Has(key) {
		t.Fatal("garbage upload was published")
	}

	// A genuine artifact round-trips: PUT, then GET returns the bytes.
	side, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := side.Create(key, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(ckpt.Trailer{TotalReal: 1000}); err != nil {
		t.Fatal(err)
	}
	artifact, err := side.ReadRaw(key)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := rawCkpt(t, cl, http.MethodPut, key, artifact); code != http.StatusNoContent {
		t.Errorf("PUT artifact = %d, want 204", code)
	}
	// Re-upload of a published key is first-writer-wins, not an error.
	if code, _ := rawCkpt(t, cl, http.MethodPut, key, artifact); code != http.StatusNoContent {
		t.Errorf("second PUT = %d, want 204", code)
	}
	code, got := rawCkpt(t, cl, http.MethodGet, key, nil)
	if code != http.StatusOK || !bytes.Equal(got, artifact) {
		t.Errorf("GET after PUT = %d, %d bytes; want 200 with the uploaded %d bytes",
			code, len(got), len(artifact))
	}

	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_ckpt_artifacts"); v != 1 {
		t.Errorf("sdiqd_ckpt_artifacts = %g, want 1", v)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_bytes_shipped_total"); v < float64(2*len(artifact)) {
		t.Errorf("sdiqd_ckpt_bytes_shipped_total = %g, want >= %d (one PUT + one GET)",
			v, 2*len(artifact))
	}
}

func TestCheckpointEndpointsWithoutStore(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	key := "1111222233334444555566667777888899990000aaaabbbbccccddddeeeeffff"
	if code, _ := rawCkpt(t, cl, http.MethodGet, key, nil); code != http.StatusNotFound {
		t.Errorf("GET without store = %d, want 404", code)
	}
	if code, _ := rawCkpt(t, cl, http.MethodPut, key, []byte("x")); code != http.StatusNotFound {
		t.Errorf("PUT without store = %d, want 404", code)
	}
}

// TestDeleteEvictsOrphanedArtifacts: DELETE of a campaign evicts the
// artifacts only it references; anything a surviving campaign still
// names stays published.
func TestDeleteEvictsOrphanedArtifacts(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), CkptDir: t.TempDir(), Workers: 2})
	ctx := context.Background()

	// A references gzip's two warm classes (plain, noop); B references
	// the same two — the IQ axis is excluded from the key, so a different
	// sweep point shares them — plus mcf's two.
	if _, err := cl.Run(ctx, sampledSpec("ckpt-gc-a", []string{"gzip"}, 48)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(ctx, sampledSpec("ckpt-gc-b", []string{"gzip", "mcf"}, 64)); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.ckpt.DiskStat(); n != 4 {
		t.Fatalf("%d artifacts after both campaigns, want 4 (gzip+mcf x plain+noop)", n)
	}

	// Campaign ids are sequential; B is the second submission. Deleting
	// it must evict only mcf's artifacts: gzip's are still A's.
	if err := cl.Delete(ctx, "c0002"); err != nil {
		t.Fatalf("delete campaign B: %v", err)
	}
	if n, _ := s.ckpt.DiskStat(); n != 2 {
		t.Fatalf("%d artifacts after deleting B, want 2 — gzip is still referenced by A", n)
	}
	if err := cl.Delete(ctx, "c0001"); err != nil {
		t.Fatalf("delete campaign A: %v", err)
	}
	if n, _ := s.ckpt.DiskStat(); n != 0 {
		t.Fatalf("%d artifacts after deleting both campaigns, want 0", n)
	}
	if v := metricValue(t, fetchMetrics(t, cl), "sdiqd_ckpt_evicted_total"); v != 4 {
		t.Errorf("sdiqd_ckpt_evicted_total = %g, want 4", v)
	}
}

// TestWorkerCheckpointSharing is the distributed acceptance gate: a
// sampled sweep executed by two remote workers, each with its own local
// checkpoint store, must ship warm state through the server (generate
// once, fetch everywhere) and still export byte-identically to a plain
// local warm-from-scratch run.
func TestWorkerCheckpointSharing(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:     t.TempDir(),
		CkptDir:      t.TempDir(),
		Workers:      2,
		LeaseTTL:     2 * time.Second,
		OfferTimeout: 30 * time.Second,
		WorkerTTL:    60 * time.Second,
		JobRetries:   2,
	})
	ctx := context.Background()
	spec := sampledSpec("ckpt-fleet", []string{"gzip"}, 48, 80)

	startWorker(t, cl.Base, "wa", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
	startWorker(t, cl.Base, "wb", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
	waitMetric(t, cl, "sdiqd_workers_connected", 2)

	rs, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var remoteCSV bytes.Buffer
	if err := rs.WriteCSV(&remoteCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteCSV.Bytes(), localCSV(t, spec)) {
		t.Error("fleet run with checkpoint sharing is not byte-identical to a local warm-from-scratch run")
	}

	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_jobs_remote_total"); v != 4 {
		t.Errorf("sdiqd_jobs_remote_total = %g, want 4 — the fleet must run the whole grid", v)
	}
	// The sweep has two warming identities (plain, noop); workers must
	// have pushed generated artifacts to the server.
	if n, _ := s.ckpt.DiskStat(); n != 2 {
		t.Errorf("%d artifacts on the server, want 2 (one per warm class)", n)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_bytes_shipped_total"); v <= 0 {
		t.Errorf("sdiqd_ckpt_bytes_shipped_total = %g, want > 0 — no artifact ever crossed the wire", v)
	}
}

// TestWorkerPushesArtifactOnce: a worker that already holds a sweep's
// artifact must not push it again after every job. One worker runs
// three IQ cells of one warming identity: it generates the artifact on
// the first cell and resumes it for the other two, so exactly one
// artifact's bytes cross the wire.
func TestWorkerPushesArtifactOnce(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:     t.TempDir(),
		CkptDir:      t.TempDir(),
		Workers:      1,
		LeaseTTL:     2 * time.Second,
		OfferTimeout: 30 * time.Second,
		WorkerTTL:    60 * time.Second,
		JobRetries:   2,
	})
	spec := sampledSpec("ckpt-push-once", []string{"gzip"}, 48, 64, 80)
	spec.Techniques = []campaign.Technique{campaign.TechBaseline} // one warming identity

	startWorker(t, cl.Base, "wa", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
	waitMetric(t, cl, "sdiqd_workers_connected", 1)
	if _, err := cl.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	key, err := campaign.CheckpointKey(&jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := s.ckpt.ReadRaw(key)
	if err != nil {
		t.Fatalf("the worker never published the sweep's artifact: %v", err)
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_jobs_remote_total"); v != 3 {
		t.Errorf("sdiqd_jobs_remote_total = %g, want 3 — the worker must run every cell", v)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_bytes_shipped_total"); v != float64(len(artifact)) {
		t.Errorf("sdiqd_ckpt_bytes_shipped_total = %g, want %d (one push of the one artifact)", v, len(artifact))
	}
}
