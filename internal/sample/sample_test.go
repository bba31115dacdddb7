package sample

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testConfig() Config {
	// Small regime so unit tests stay fast: 200-inst windows every 2k.
	return Config{WindowInsts: 200, PeriodInsts: 2000, WarmupInsts: 400, DetailWarmupInsts: 200}
}

// runStored is one configuration's sampled run against a checkpoint
// store: a lockstep batch of one, as the campaign layer runs a solo
// sampled job.
func runStored(cfg sim.Config, p *prog.Program, budget int64, sc Config, st *ckpt.Store, key string) (*Report, error) {
	cells, err := RunLockstepStored(context.Background(), []sim.Config{cfg}, p, budget, sc, st, key)
	if err != nil {
		return nil, err
	}
	return cells[0].Report, cells[0].Err
}

func TestRunDeterministic(t *testing.T) {
	b, _ := workload.ByName("vpr")
	cfg := sim.DefaultConfig()
	a, err := Run(context.Background(), cfg, b.Build(42), 100_000, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(context.Background(), cfg, b.Build(42), 100_000, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("two identical sampled runs produced different reports")
	}
	if len(a.Windows) == 0 {
		t.Fatal("no windows measured")
	}
	if a.SampledReal == 0 || a.TotalReal < a.SampledReal {
		t.Fatalf("accounting broken: sampled %d of total %d", a.SampledReal, a.TotalReal)
	}
	if a.Stats.Cycles == 0 || a.Stats.CommittedReal == 0 {
		t.Fatal("extrapolated stats empty")
	}
	// Extrapolated committed-real must land near the budget.
	if got := a.Stats.CommittedReal; got < 90_000 || got > 110_000 {
		t.Errorf("extrapolated CommittedReal = %d, want ~100000", got)
	}
}

// TestRunStoredGenerateResume: the first stored run generates the
// artifact; a second run resumes from it and must produce the exact
// same report — the bit-identity contract the checkpoint store's whole
// value rests on. (The broader cross-config differential suite lives in
// internal/campaign.)
func TestRunStoredGenerateResume(t *testing.T) {
	b, _ := workload.ByName("gzip")
	cfg := sim.DefaultConfig()
	sc := testConfig()
	st, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "ab12cd34ab12cd34ab12cd34ab12cd34"

	cold, err := runStored(cfg, b.Build(42), 50_000, sc, st, key)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Has(key) {
		t.Fatal("generate pass did not publish the artifact")
	}
	if m := st.Metrics(); m.Generated != 1 || m.Misses == 0 {
		t.Fatalf("generate metrics: %+v", m)
	}

	warm, err := runStored(cfg, b.Build(42), 50_000, sc, st, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("resumed report differs from generating report:\ncold %+v\nwarm %+v", cold, warm)
	}
	if m := st.Metrics(); m.Hits == 0 {
		t.Fatalf("resume did not hit the store: %+v", m)
	}

	// Both must equal the store-less run too.
	plain, err := Run(context.Background(), cfg, b.Build(42), 50_000, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Fatal("stored run differs from plain run")
	}

	// Window starts must be strictly increasing along the stream.
	for i := 1; i < len(cold.Windows); i++ {
		if cold.Windows[i].StartSeq <= cold.Windows[i-1].StartSeq {
			t.Fatalf("window starts not increasing: %d then %d",
				cold.Windows[i-1].StartSeq, cold.Windows[i].StartSeq)
		}
	}
}

// TestRunStoredCorruptArtifact: a mangled artifact must be evicted and
// regenerated, not trusted — including one whose gzip checksum fails
// though its records decode, which may hold silently altered state.
func TestRunStoredCorruptArtifact(t *testing.T) {
	b, _ := workload.ByName("gzip")
	cfg := sim.DefaultConfig()
	sc := testConfig()
	plain, err := Run(context.Background(), cfg, b.Build(42), 50_000, sc)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func([]byte) []byte{
		"garbage": func([]byte) []byte { return []byte("not an artifact") },
		"checksum": func(good []byte) []byte {
			bad := append([]byte(nil), good...)
			bad[len(bad)-8] ^= 1 // the CRC-32 in the gzip footer
			return bad
		},
	} {
		dir := t.TempDir()
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		const key = "ab12cd34ab12cd34ab12cd34ab12cd34"
		if _, err := runStored(cfg, b.Build(42), 50_000, sc, st, key); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, key[:2], key+".ckpt")
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, corrupt(good), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := runStored(cfg, b.Build(42), 50_000, sc, st, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("%s: report differs from a storeless run after corruption", name)
		}
		if m := st.Metrics(); m.Evicted != 1 || m.Generated != 2 {
			t.Fatalf("%s: metrics %+v, want the artifact evicted and regenerated", name, m)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, good) {
			t.Fatalf("%s: regenerated artifact differs from the original (%v)", name, err)
		}
	}
}

// TestRunStoredFormat1Artifact: a store holding an artifact written by
// an older build for exactly this job treats it as a miss: it is
// evicted, a current artifact replaces it, and the report equals a
// storeless run. internal/ckpt/testdata/v1.ckpt is the format-1 build's
// artifact of gzip at a 6,000-instruction budget under testConfig(),
// and v2.ckpt the format-2 build's of gzip at 60,000 under the
// lockstep tests' regime.
func TestRunStoredFormat1Artifact(t *testing.T) {
	b, _ := workload.ByName("gzip")
	cfg := sim.DefaultConfig()
	for _, tc := range []struct {
		file   string
		budget int64
		sc     Config
	}{
		{"../ckpt/testdata/v1.ckpt", 6_000, testConfig()},
		{"../ckpt/testdata/v2.ckpt", 60_000, Config{WindowInsts: 500, PeriodInsts: 4000, WarmupInsts: 1000, DetailWarmupInsts: 250}},
	} {
		old, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		const key = "ab12cd34ab12cd34ab12cd34ab12cd34"
		path := filepath.Join(dir, key[:2], key+".ckpt")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}

		got, err := runStored(cfg, b.Build(42), tc.budget, tc.sc, st, key)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(context.Background(), cfg, b.Build(42), tc.budget, tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.Windows) == 0 {
			t.Fatalf("%s: the job measured no window", tc.file)
		}
		if !reflect.DeepEqual(got, plain) {
			t.Fatalf("%s: report over an older format's artifact differs from a storeless run", tc.file)
		}
		if m := st.Metrics(); m.Evicted != 1 || m.Generated != 1 {
			t.Fatalf("%s: metrics %+v: want the older artifact evicted and one generated", tc.file, m)
		}
		// The replacement is current: it resumes.
		resumed, err := runStored(cfg, b.Build(42), tc.budget, tc.sc, st, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, plain) {
			t.Fatalf("%s: resumed report differs from a storeless run", tc.file)
		}
		if m := st.Metrics(); m.Generated != 1 || m.Hits != 1 {
			t.Fatalf("%s: metrics %+v: want the replacement resumed", tc.file, m)
		}
	}
}

func TestRunValidation(t *testing.T) {
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	cfg := sim.DefaultConfig()
	if _, err := Run(context.Background(), cfg, p, 0, Config{}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Run(context.Background(), cfg, p, 1000, Config{WindowInsts: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Run(context.Background(), cfg, p, 1000,
		Config{WindowInsts: 1000, PeriodInsts: 500}); err == nil {
		t.Error("period < window accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	b, _ := workload.ByName("gzip")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, sim.DefaultConfig(), b.Build(42), 1<<40, Config{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled sampled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sampled run did not notice cancellation")
	}
}

func TestCounterArithmetic(t *testing.T) {
	var a, b sim.Stats
	a.Cycles, a.CommittedReal, a.IQ.Issues, a.DL1.Misses = 100, 50, 40, 7
	b.Cycles, b.CommittedReal, b.IQ.Issues, b.DL1.Misses = 10, 5, 4, 2
	var sum sim.Stats
	addStats(&sum, &a)
	addStats(&sum, &b)
	if sum.Cycles != 110 || sum.IQ.Issues != 44 || sum.DL1.Misses != 9 {
		t.Fatalf("addStats: %+v", sum)
	}
	d := subStats(&sum, &b)
	if d.Cycles != 100 || d.IQ.Issues != 40 || d.DL1.Misses != 7 {
		t.Fatalf("subStats: %+v", d)
	}
	s := scaleStats(&a, 2.5)
	if s.Cycles != 250 || s.CommittedReal != 125 || s.IQ.Issues != 100 {
		t.Fatalf("scaleStats: %+v", s)
	}
	// Scaling preserves derived ratios.
	if got, want := s.IPC(), a.IPC(); got != want {
		t.Fatalf("scaled IPC %v != %v", got, want)
	}
}

func TestDetailedFraction(t *testing.T) {
	c := Config{WindowInsts: 1000, PeriodInsts: 50000, WarmupInsts: 2000, DetailWarmupInsts: 1500}
	if got := c.DetailedFraction(); got != 0.05 {
		t.Fatalf("DetailedFraction = %v, want 0.05", got)
	}
}
