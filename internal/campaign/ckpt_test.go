package campaign

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/sim"
)

// keyedJob returns a sampled job at the paper's base configuration.
func keyedJob() Job {
	s := DefaultSampling()
	return Job{
		Bench:    "gzip",
		Tech:     TechBaseline,
		Config:   sim.DefaultConfig(),
		Budget:   100_000,
		Seed:     42,
		Sampling: &s,
	}
}

func TestCheckpointKeyExactJobHasNone(t *testing.T) {
	j := keyedJob()
	j.Sampling = nil
	key, err := CheckpointKey(&j)
	if err != nil || key != "" {
		t.Fatalf("exact job key = %q, %v; want \"\", nil", key, err)
	}
}

func TestCheckpointKeyFormat(t *testing.T) {
	j := keyedJob()
	key, err := CheckpointKey(&j)
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			t.Fatalf("key %q is not lowercase hex", key)
		}
	}
}

// TestCheckpointKeyPinned pins one job's key to the value computed
// before the sampled engine's jitter and fast-forward warming became
// constants: keys name stored artifacts, so a change here orphans every
// artifact in every store.
func TestCheckpointKeyPinned(t *testing.T) {
	j := keyedJob()
	key, err := CheckpointKey(&j)
	if err != nil {
		t.Fatal(err)
	}
	const want = "2df3091695c6bff6139fbaf85935919aa0325311897316c17f3fba25ece268a9"
	if key != want {
		t.Fatalf("CheckpointKey = %s, want %s", key, want)
	}
}

// TestCheckpointKeySharing pins down which job fields share an artifact
// and which invalidate it. The sweep axes a grid varies (IQ geometry,
// issue width — anything the functional warming stream cannot observe)
// must share; anything the warm state depends on must not.
func TestCheckpointKeySharing(t *testing.T) {
	base := keyedJob()
	baseKey, err := CheckpointKey(&base)
	if err != nil {
		t.Fatal(err)
	}
	same := map[string]func(*Job){
		"iq entries":                func(j *Job) { j.Config.IQ.Entries = 32 },
		"iq bank size":              func(j *Job) { j.Config.IQ.BankSize = 8 },
		"issue width":               func(j *Job) { j.Config.IssueWidth = 2 },
		"rob size":                  func(j *Job) { j.Config.ROBSize = 64 },
		"abella (also plain class)": func(j *Job) { j.Tech = TechAbella },
		"sweep point label":         func(j *Job) { j.Point = Point{{Axis: "iq.entries", Value: 80}} },
	}
	for name, mutate := range same {
		j := keyedJob()
		mutate(&j)
		key, err := CheckpointKey(&j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key != baseKey {
			t.Errorf("%s: changed the key but cannot influence warm state", name)
		}
	}
	diff := map[string]func(*Job){
		"benchmark":          func(j *Job) { j.Bench = "mcf" },
		"seed":               func(j *Job) { j.Seed = 7 },
		"budget":             func(j *Job) { j.Budget = 200_000 },
		"dl1 size":           func(j *Job) { j.Config.Caches.DL1.SizeBytes = 128 << 10 },
		"l2 assoc":           func(j *Job) { j.Config.Caches.L2.Assoc = 16 },
		"btb entries":        func(j *Job) { j.Config.Bpred.BTBEntries = 4096 },
		"history bits":       func(j *Job) { j.Config.Bpred.HistoryBits = 8 },
		"noop class":         func(j *Job) { j.Tech = TechNOOP },
		"tag class":          func(j *Job) { j.Tech = TechExtension },
		"tag-improved class": func(j *Job) { j.Tech = TechImproved },
		"sampling period":    func(j *Job) { j.Sampling.Period = j.Sampling.Period * 2 },
		"sampling window":    func(j *Job) { j.Sampling.Window = j.Sampling.Window * 2 },
		"warmup length":      func(j *Job) { j.Sampling.Warmup = -1 },
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range diff {
		j := keyedJob()
		mutate(&j)
		key, err := CheckpointKey(&j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: collides with %s", name, prev)
		}
		seen[key] = name
	}
	// The two tag passes must key apart from each other, not just from
	// the base: their hint values at window starts differ.
	ext, imp := keyedJob(), keyedJob()
	ext.Tech, imp.Tech = TechExtension, TechImproved
	ke, _ := CheckpointKey(&ext)
	ki, _ := CheckpointKey(&imp)
	if ke == ki {
		t.Error("Extension and Improved share a key; their stored hints differ")
	}
}

// normalizeWallClock zeroes the fields that record when and how long a
// run executed — legitimate differences between two executions of the
// same campaign that the bit-identity comparison must ignore.
func normalizeWallClock(rs *ResultSet) {
	for i := range rs.Results {
		r := &rs.Results[i]
		r.CompileMS, r.GenMS = 0, 0
		r.StartedAt, r.FinishedAt = time.Time{}, time.Time{}
	}
}

// TestCampaignDifferentialWithStore is the tentpole's correctness gate:
// a mixed sweep over three benchmarks, every technique and an IQ axis,
// run three ways — no store, cold store (generating), warm store
// (resuming) — must produce bit-identical campaigns.
func TestCampaignDifferentialWithStore(t *testing.T) {
	spec := Spec{
		Name:       "ckpt-differential",
		Benchmarks: []string{"gzip", "mcf", "crafty"},
		Budget:     20_000,
		Seed:       42,
		Base:       sim.DefaultConfig(),
		Params:     power.DefaultParams(),
		Axes:       []Axis{{Name: "iq.entries", Values: []int{48, 80}}},
		Sampling:   &Sampling{Window: 500, Period: 4000, Warmup: 1000, DetailWarmup: 250},
	}
	ctx := context.Background()

	plain, err := (&Engine{Workers: 2}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := (&Engine{Workers: 2, Ckpt: store}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := (&Engine{Workers: 2, Ckpt: store}).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	jobs, _ := spec.Jobs()
	if len(plain.Results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(plain.Results), len(jobs))
	}
	for _, run := range []struct {
		name string
		rs   *ResultSet
	}{{"cold store", cold}, {"warm store", warm}} {
		for i := range plain.Results {
			want, got := &plain.Results[i], &run.rs.Results[i]
			if !reflect.DeepEqual(want.Stats, got.Stats) {
				t.Errorf("%s: %s/%s/%s: stats diverge from storeless run",
					run.name, got.Bench, got.Tech, got.Point)
			}
			if !reflect.DeepEqual(want.Sampled, got.Sampled) {
				t.Errorf("%s: %s/%s/%s: sampling meta diverges from storeless run",
					run.name, got.Bench, got.Tech, got.Point)
			}
		}
	}

	// Export bit-identity: CSV directly, JSON after dropping wall-clock.
	var wantCSV bytes.Buffer
	if err := plain.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	normalizeWallClock(plain)
	var wantJSON bytes.Buffer
	if err := plain.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		rs   *ResultSet
	}{{"cold store", cold}, {"warm store", warm}} {
		var csv bytes.Buffer
		if err := run.rs.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csv.Bytes(), wantCSV.Bytes()) {
			t.Errorf("%s: CSV export is not byte-identical to the storeless run", run.name)
		}
		normalizeWallClock(run.rs)
		var js bytes.Buffer
		if err := run.rs.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js.Bytes(), wantJSON.Bytes()) {
			t.Errorf("%s: JSON export is not byte-identical to the storeless run", run.name)
		}
	}

	// Store accounting: the grid has 3 benchmarks x 4 warm classes
	// (baseline and abella share "plain") = 12 artifacts; the 2 IQ points
	// deliberately share. Cold run: 12 generates + 18 resumes; warm run:
	// 30 resumes.
	m := store.Metrics()
	if m.Generated != 12 {
		t.Errorf("Generated = %d, want 12 (one artifact per warm identity)", m.Generated)
	}
	if want := int64(len(jobs)*2 - 12); m.Hits != want {
		t.Errorf("Hits = %d, want %d", m.Hits, want)
	}
	if n, _ := store.DiskStat(); n != 12 {
		t.Errorf("%d artifacts on disk, want 12", n)
	}
}
