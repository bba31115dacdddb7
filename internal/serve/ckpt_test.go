// Checkpoint store integration: artifact shipping endpoints, artifacts
// outliving the campaigns that generated them, the byte bound, and
// fleet-wide warm-state sharing. The sharing test ends on the same
// oracle as the failure suite — a remote campaign that resumed from
// shipped artifacts must export byte-identically to a plain local run —
// and the whole file runs under -race in CI.
package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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
// naming lease, returning status and body (no client-side error
// mapping).
func rawCkpt(t *testing.T, cl *Client, method, lease, key string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cl.Base+"/v1/checkpoints/"+key+"?lease="+lease, rd)
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

// grantKey adds a live lease whose job carries key, the precondition
// for uploads, and returns its ID.
func grantKey(s *Server, key string) string {
	s.disp.mu.Lock()
	defer s.disp.mu.Unlock()
	l := &lease{id: "l-test", t: &task{ckptKey: key, ns: s.shared, state: taskTaken}}
	s.disp.leases[l.id] = l
	return l.id
}

func TestCheckpointEndpoints(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), CkptDir: t.TempDir(), Workers: 2})
	key := "1111222233334444555566667777888899990000aaaabbbbccccddddeeeeffff"

	if code, _ := rawCkpt(t, cl, http.MethodGet, "", key, nil); code != http.StatusNotFound {
		t.Errorf("GET missing artifact = %d, want 404", code)
	}
	if code, _ := rawCkpt(t, cl, http.MethodGet, "", "..%2F..%2Fetc%2Fpasswd", nil); code != http.StatusNotFound {
		t.Errorf("GET traversal key = %d, want 404", code)
	}
	// An upload for a key the server never leased is refused outright.
	if code, _ := rawCkpt(t, cl, http.MethodPut, "", key, []byte("data")); code != http.StatusForbidden {
		t.Errorf("PUT unleased key = %d, want 403", code)
	}

	// Once granted, the container is still validated before publishing.
	lease := grantKey(s, key)
	if code, _ := rawCkpt(t, cl, http.MethodPut, lease, key, []byte("not an artifact")); code != http.StatusUnprocessableEntity {
		t.Errorf("PUT garbage = %d, want 422", code)
	}
	if s.shared.ckpt.Has(key) {
		t.Fatal("garbage upload was published")
	}

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
	// So is an artifact whose gzip checksum fails, and one written in an
	// older artifact format.
	corrupt := append([]byte(nil), artifact...)
	corrupt[len(corrupt)-8] ^= 1 // the CRC-32 in the gzip footer
	v1, err := os.ReadFile("../ckpt/testdata/v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("../ckpt/testdata/v2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"checksum": corrupt, "format 1": v1, "format 2": v2} {
		if code, body := rawCkpt(t, cl, http.MethodPut, lease, key, data); code != http.StatusUnprocessableEntity {
			t.Errorf("PUT %s artifact = %d (%s), want 422", name, code, body)
		}
		if s.shared.ckpt.Has(key) {
			t.Fatalf("%s artifact was published", name)
		}
	}

	// A genuine artifact round-trips: PUT, then GET returns the bytes.
	if code, _ := rawCkpt(t, cl, http.MethodPut, lease, key, artifact); code != http.StatusNoContent {
		t.Errorf("PUT artifact = %d, want 204", code)
	}
	// Re-upload of a published key is first-writer-wins, not an error.
	if code, _ := rawCkpt(t, cl, http.MethodPut, lease, key, artifact); code != http.StatusNoContent {
		t.Errorf("second PUT = %d, want 204", code)
	}
	code, got := rawCkpt(t, cl, http.MethodGet, lease, key, nil)
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

	// A published artifact no lease ever named is not readable either.
	unleased := "2222222233333333444444445555555566666666777777778888888899999999"
	if err := s.shared.ckpt.WriteRaw(unleased, artifact); err != nil {
		t.Fatal(err)
	}
	if code, _ := rawCkpt(t, cl, http.MethodGet, lease, unleased, nil); code != http.StatusNotFound {
		t.Errorf("GET of a published but never-leased artifact = %d, want 404", code)
	}
}

func TestCheckpointEndpointsWithoutStore(t *testing.T) {
	_, cl := startServer(t, Config{CacheDir: t.TempDir(), Workers: 2})
	key := "1111222233334444555566667777888899990000aaaabbbbccccddddeeeeffff"
	if code, _ := rawCkpt(t, cl, http.MethodGet, "", key, nil); code != http.StatusNotFound {
		t.Errorf("GET without store = %d, want 404", code)
	}
	if code, _ := rawCkpt(t, cl, http.MethodPut, "", key, []byte("x")); code != http.StatusNotFound {
		t.Errorf("PUT without store = %d, want 404", code)
	}
}

// TestDeleteKeepsArtifacts: DELETE drops a campaign from the registry,
// not the warm state it generated. Artifacts leave only by the byte
// bound, as cached results do, so a later sweep point of the same
// warming identity — the IQ axis is excluded from the key — resumes
// from them instead of warming again, and still exports byte-identically
// to a local run.
func TestDeleteKeepsArtifacts(t *testing.T) {
	s, cl := startServer(t, Config{CacheDir: t.TempDir(), CkptDir: t.TempDir(), Workers: 2})
	ctx := context.Background()

	if _, err := cl.Run(ctx, sampledSpec("ckpt-keep-48", []string{"gzip"}, 48)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, "c0001"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if n, _ := s.shared.ckpt.DiskStat(); n != 2 {
		t.Fatalf("%d artifacts after the delete, want 2 (gzip x plain+noop)", n)
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_ckpt_evicted_total"); v != 0 {
		t.Errorf("sdiqd_ckpt_evicted_total = %g after the delete, want 0", v)
	}
	hits := metricValue(t, text, "sdiqd_ckpt_hits_total")
	generated := metricValue(t, text, "sdiqd_ckpt_generated_total")

	spec := sampledSpec("ckpt-keep-64", []string{"gzip"}, 64)
	rs, err := cl.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, rs), localCSV(t, spec)) {
		t.Error("a campaign resumed from a deleted campaign's artifacts is not byte-identical to a local run")
	}
	text = fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_ckpt_hits_total"); v <= hits {
		t.Errorf("sdiqd_ckpt_hits_total = %g, want more than %g: the second campaign must resume", v, hits)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_generated_total"); v != generated {
		t.Errorf("sdiqd_ckpt_generated_total = %g, want %g: nothing to warm again", v, generated)
	}
}

// TestWorkerCheckpointSharing is the distributed acceptance gate: a
// sampled sweep executed by two remote workers, each with its own local
// checkpoint store, must ship warm state through the server (generate
// once, fetch everywhere) and still export byte-identically to a plain
// local warm-from-scratch run.
func TestWorkerCheckpointSharing(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:   t.TempDir(),
		CkptDir:    t.TempDir(),
		Workers:    2,
		LeaseTTL:   2 * time.Second,
		WorkerTTL:  60 * time.Second,
		JobRetries: 2,
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
	if n, _ := s.shared.ckpt.DiskStat(); n != 2 {
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
		CacheDir:   t.TempDir(),
		CkptDir:    t.TempDir(),
		Workers:    1,
		LeaseTTL:   2 * time.Second,
		WorkerTTL:  60 * time.Second,
		JobRetries: 2,
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
	artifact, err := s.shared.ckpt.ReadRaw(key)
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

// TestWorkerReplacesStaleArtifact: a server whose store holds an
// artifact of an older format under a sweep's key must not ship it
// forever. Two workers run a two-cell campaign of that warming
// identity: the server answers their fetches as misses and removes the
// stale artifact, the workers generate the sweep's artifact, and the
// server publishes the first one pushed. A later cell of the identity
// then resumes from the server's copy, and the campaign exports
// byte-identically to a local run.
func TestWorkerReplacesStaleArtifact(t *testing.T) {
	ctx := context.Background()
	spec := sampledSpec("stale-artifact", []string{"gzip"}, 48, 64)
	spec.Techniques = []campaign.Technique{campaign.TechBaseline} // one warming identity
	laterSpec := spec
	laterSpec.Axes = []campaign.Axis{{Name: "iq.entries", Values: []int{80}}}
	later, err := laterSpec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	key, err := campaign.CheckpointKey(&later[0])
	if err != nil {
		t.Fatal(err)
	}
	want := localCSV(t, spec)
	plain, err := campaign.ExecuteStored(ctx, &later[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"../ckpt/testdata/v1.ckpt", "../ckpt/testdata/v2.ckpt"} {
		stale, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ckptDir := t.TempDir()
		path := filepath.Join(ckptDir, key[:2], key+".ckpt")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stale, 0o644); err != nil {
			t.Fatal(err)
		}
		s, cl := startServer(t, Config{
			CacheDir:   t.TempDir(),
			CkptDir:    ckptDir,
			Workers:    2,
			LeaseTTL:   2 * time.Second,
			WorkerTTL:  60 * time.Second,
			JobRetries: 2,
		})
		startWorker(t, cl.Base, "wa", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
		startWorker(t, cl.Base, "wb", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
		waitMetric(t, cl, "sdiqd_workers_connected", 2)

		rs, err := cl.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvOf(t, rs), want) {
			t.Errorf("%s: fleet run over a stale artifact is not byte-identical to a local run", file)
		}
		text := fetchMetrics(t, cl)
		if v := metricValue(t, text, "sdiqd_jobs_remote_total"); v != 2 {
			t.Errorf("%s: sdiqd_jobs_remote_total = %g, want 2", file, v)
		}
		if v := metricValue(t, text, "sdiqd_ckpt_evicted_total"); v != 1 {
			t.Errorf("%s: sdiqd_ckpt_evicted_total = %g, want 1 (the stale artifact)", file, v)
		}
		if got, err := s.shared.ckpt.ReadRaw(key); err != nil || bytes.Equal(got, stale) {
			t.Fatalf("%s: the server holds no current artifact after the campaign (%v)", file, err)
		}

		before := s.shared.ckpt.Metrics()
		res, err := campaign.ExecuteStored(ctx, &later[0], s.shared.ckpt)
		if err != nil {
			t.Fatal(err)
		}
		after := s.shared.ckpt.Metrics()
		if after.Hits != before.Hits+1 || after.Generated != before.Generated {
			t.Errorf("%s: a later cell did not resume from the server's artifact: metrics %+v, then %+v", file, before, after)
		}
		if !reflect.DeepEqual(res.Stats, plain.Stats) || !reflect.DeepEqual(res.Sampled, plain.Sampled) {
			t.Errorf("%s: the later cell resumed from the server's artifact differs from a storeless run", file)
		}
	}
}

// TestCorruptServerArtifactReplaced: a server whose store holds a
// current-format artifact with a corrupt gzip stream — its footer CRC
// flipped, as disk rot might — must not ship it forever. Two workers
// run two campaigns of that warming identity: the server checks the
// artifact before shipping it, evicts it and answers 404, a worker
// generates the sweep's artifact and pushes it, and the server keeps
// that upload. Both campaigns export byte-identically to local runs,
// and the server ends holding the intact artifact.
func TestCorruptServerArtifactReplaced(t *testing.T) {
	ctx := context.Background()
	first := sampledSpec("corrupt-artifact", []string{"gzip"}, 48, 64)
	first.Techniques = []campaign.Technique{campaign.TechBaseline} // one warming identity
	second := first
	second.Name = "corrupt-artifact-later"
	second.Axes = []campaign.Axis{{Name: "iq.entries", Values: []int{32, 80}}}
	jobs, err := first.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	key, err := campaign.CheckpointKey(&jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	side, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.ExecuteStored(ctx, &jobs[0], side); err != nil {
		t.Fatal(err)
	}
	good, err := side.ReadRaw(key)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-8] ^= 1 // the CRC-32 in the gzip footer
	ckptDir := t.TempDir()
	path := filepath.Join(ckptDir, key[:2], key+".ckpt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	s, cl := startServer(t, Config{
		CacheDir:   t.TempDir(),
		CkptDir:    ckptDir,
		Workers:    2,
		LeaseTTL:   2 * time.Second,
		WorkerTTL:  60 * time.Second,
		JobRetries: 2,
	})
	startWorker(t, cl.Base, "wa", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
	startWorker(t, cl.Base, "wb", 1, func(w *worker.Worker) { w.Ckpt = t.TempDir() })
	waitMetric(t, cl, "sdiqd_workers_connected", 2)

	for _, spec := range []campaign.Spec{first, second} {
		rs, err := cl.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvOf(t, rs), localCSV(t, spec)) {
			t.Errorf("%s: fleet run over a corrupt artifact is not byte-identical to a local run", spec.Name)
		}
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_jobs_remote_total"); v != 4 {
		t.Errorf("sdiqd_jobs_remote_total = %g, want 4", v)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_evicted_total"); v < 1 {
		t.Errorf("sdiqd_ckpt_evicted_total = %g, want at least 1 (the corrupt artifact)", v)
	}
	if got, err := s.shared.ckpt.ReadRaw(key); err != nil || !bytes.Equal(got, good) {
		t.Errorf("the server holds %d bytes (%v) after the campaigns, want the intact %d-byte artifact", len(got), err, len(good))
	}
}

// csvOf renders a result set as CSV.
func csvOf(t *testing.T, rs *campaign.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactByteBound: CacheMaxBytes bounds the checkpoint store as
// it bounds the result cache. With a one-byte bound every GC empties the
// store, so the rerun regenerates what the first run generated, and
// both runs still export byte-identically to a local run.
func TestArtifactByteBound(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:      t.TempDir(),
		CkptDir:       t.TempDir(),
		Workers:       2,
		CacheMaxBytes: 1,
	})
	spec := sampledSpec("ckpt-bound", []string{"gzip"}, 48, 64)
	want := localCSV(t, spec)
	for run := 1; run <= 2; run++ {
		rs, err := cl.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csvOf(t, rs), want) {
			t.Errorf("run %d under a one-byte bound is not byte-identical to a local run", run)
		}
		s.gcOnce()
		text := fetchMetrics(t, cl)
		gen := metricValue(t, text, "sdiqd_ckpt_generated_total")
		if gen != float64(2*run) {
			t.Errorf("run %d: sdiqd_ckpt_generated_total = %g, want %d (one per warm class per run)", run, gen, 2*run)
		}
		if v := metricValue(t, text, "sdiqd_ckpt_evicted_total"); v != gen {
			t.Errorf("run %d: sdiqd_ckpt_evicted_total = %g, want every generated artifact (%g)", run, v, gen)
		}
		if n, _ := s.shared.ckpt.DiskStat(); n != 0 {
			t.Errorf("run %d: %d artifacts survive the bound", run, n)
		}
	}
}

// TestWorkerStoresBounded: a worker's ScratchMaxBytes bounds its local
// checkpoint store as well as its scratch cache. Under a one-byte bound
// the worker keeps no artifact, so each artifact crosses the wire twice
// — pushed by the cell that generated it, fetched back by its sibling —
// and the export is still byte-identical to a local run.
func TestWorkerStoresBounded(t *testing.T) {
	s, cl := startServer(t, Config{
		CacheDir:  t.TempDir(),
		CkptDir:   t.TempDir(),
		Workers:   1,
		LeaseTTL:  2 * time.Second,
		WorkerTTL: 60 * time.Second,
	})
	spec := sampledSpec("worker-bound", []string{"gzip"}, 48, 64)
	workerCkpt := t.TempDir()
	startWorker(t, cl.Base, "wa", 1, func(w *worker.Worker) {
		w.Ckpt, w.ScratchMaxBytes = workerCkpt, 1
	})
	waitMetric(t, cl, "sdiqd_workers_connected", 1)
	rs, err := cl.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, rs), localCSV(t, spec)) {
		t.Error("bounded worker's run is not byte-identical to a local run")
	}
	local, err := ckpt.Open(workerCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := local.DiskStat(); n != 0 {
		t.Errorf("worker holds %d artifacts under a one-byte bound", n)
	}
	text := fetchMetrics(t, cl)
	if v := metricValue(t, text, "sdiqd_jobs_remote_total"); v != 4 {
		t.Errorf("sdiqd_jobs_remote_total = %g, want 4", v)
	}
	artifacts, size := s.shared.ckpt.DiskStat()
	if artifacts != 2 {
		t.Fatalf("%d artifacts on the server, want 2 (one per warm class)", artifacts)
	}
	if v := metricValue(t, text, "sdiqd_ckpt_bytes_shipped_total"); v != float64(2*size) {
		t.Errorf("sdiqd_ckpt_bytes_shipped_total = %g, want %d (each artifact pushed once, fetched once)", v, 2*size)
	}
}
