// Lockstep differential suite: the lockstep executor fans ONE emulator +
// functional-warming stream out to K detailed cores, and its entire
// claim to correctness is bit-identity with the per-cell path. These
// tests run the same 8-cell IQ sweep both ways — at the engine level
// (sample.RunLockstepStored vs sample.RunStored) and at the campaign
// level (Engine.Lockstep on vs off, exact and sampled, checkpoint store
// on and off) — and require identical per-cell Stats and byte-identical
// exports. The suite runs under -race in CI: the per-window fan-out
// clones memory and predictor state per cell, and a missed clone shows
// up here as a divergence or a race report.
//
// External test package: campaign imports sample, so the campaign-level
// differentials must live outside package sample.
package sample_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

// iqAxis is the 8-cell sweep every differential here runs: IQ sizes are
// invisible to functional warming, so all eight cells share one
// CheckpointKey and form a single lockstep batch.
var iqAxis = []int{16, 24, 32, 40, 48, 56, 64, 80}

// testRegime keeps windows dense enough that a 60k budget yields a
// multi-window report while the suite stays fast.
func testRegime() sample.Config {
	return sample.Config{WindowInsts: 500, PeriodInsts: 4000, WarmupInsts: 1000, DetailWarmupInsts: 250}
}

const testBudget = 60_000

func buildGzip(t *testing.T) *workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("gzip benchmark missing")
	}
	return &b
}

func iqConfigs() []sim.Config {
	cfgs := make([]sim.Config, len(iqAxis))
	for i, n := range iqAxis {
		cfgs[i] = sim.DefaultConfig()
		cfgs[i].IQ.Entries = n
	}
	return cfgs
}

// TestLockstepEngineDifferential is the core claim at the sample-engine
// level: RunLockstepStored over K configs returns, cell for cell, the
// exact Report RunStored produces for that config alone — storeless,
// generating into a cold store, and resuming from a warm one.
func TestLockstepEngineDifferential(t *testing.T) {
	ctx := context.Background()
	b := buildGzip(t)
	cfgs := iqConfigs()
	sc := testRegime()

	want := make([]*sample.Report, len(cfgs))
	for i, cfg := range cfgs {
		rep, err := sample.RunStored(ctx, cfg, b.Build(42), testBudget, sc, nil, "")
		if err != nil {
			t.Fatalf("per-cell iq=%d: %v", iqAxis[i], err)
		}
		want[i] = rep
	}

	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Keys are content hashes in production (campaign.CheckpointKey);
	// any lowercase-hex string works at this layer.
	const key = "beefbeefbeefbeefbeefbeefbeefbeef"
	runs := []struct {
		name  string
		store *ckpt.Store
		key   string
	}{
		{"storeless", nil, ""},
		{"cold store", store, key},
		{"warm store", store, key},
	}
	for _, run := range runs {
		cells, err := sample.RunLockstepStored(ctx, cfgs, b.Build(42), testBudget, sc, run.store, run.key)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(cells) != len(cfgs) {
			t.Fatalf("%s: %d cells for %d configs", run.name, len(cells), len(cfgs))
		}
		for i, cell := range cells {
			if cell.Err != nil {
				t.Fatalf("%s: cell iq=%d: %v", run.name, iqAxis[i], cell.Err)
			}
			if !reflect.DeepEqual(cell.Report, want[i]) {
				t.Errorf("%s: cell iq=%d report diverges from per-cell run", run.name, iqAxis[i])
			}
		}
	}
	// The batch shares one warming pass: one artifact generated, one
	// resume for the warm run.
	if m := store.Metrics(); m.Generated != 1 || m.Hits != 1 {
		t.Errorf("store metrics = %+v, want 1 generate + 1 hit for the whole batch", m)
	}
}

// TestLockstepWarmingIdentityGuard: cells whose warm state would differ
// (cache or predictor geometry) must be refused, not silently shared.
func TestLockstepWarmingIdentityGuard(t *testing.T) {
	ctx := context.Background()
	b := buildGzip(t)
	sc := testRegime()

	cfgs := []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	cfgs[1].Caches.DL1.SizeBytes *= 2
	if _, err := sample.RunLockstepStored(ctx, cfgs, b.Build(42), testBudget, sc, nil, ""); err == nil {
		t.Error("differing cache geometry accepted into one lockstep batch")
	}

	cfgs = []sim.Config{sim.DefaultConfig(), sim.DefaultConfig()}
	cfgs[1].Bpred.BTBEntries *= 2
	if _, err := sample.RunLockstepStored(ctx, cfgs, b.Build(42), testBudget, sc, nil, ""); err == nil {
		t.Error("differing predictor geometry accepted into one lockstep batch")
	}

	if _, err := sample.RunLockstepStored(ctx, nil, b.Build(42), testBudget, sc, nil, ""); err == nil {
		t.Error("empty batch accepted")
	}
}

// --- campaign-level differential ---

// lockstepSpec is the 8-cell IQ sweep as a campaign: one benchmark, the
// baseline technique, the iq.entries axis.
func lockstepSpec(sampled bool) campaign.Spec {
	spec := campaign.Spec{
		Name:       "lockstep-differential",
		Benchmarks: []string{"gzip"},
		Techniques: []campaign.Technique{campaign.TechBaseline},
		Budget:     testBudget,
		Seed:       42,
		Base:       sim.DefaultConfig(),
		Params:     power.DefaultParams(),
		Axes:       []campaign.Axis{{Name: "iq.entries", Values: iqAxis}},
	}
	if sampled {
		spec.Sampling = &campaign.Sampling{Window: 500, Period: 4000, Warmup: 1000, DetailWarmup: 250}
	}
	return spec
}

// normalizeWallClock zeroes the timing metadata two executions of the
// same campaign legitimately differ in, so the JSON export comparison
// tests identity of everything else.
func normalizeWallClock(rs *campaign.ResultSet) {
	for i := range rs.Results {
		r := &rs.Results[i]
		r.CompileMS, r.GenMS = 0, 0
		r.StartedAt, r.FinishedAt = time.Time{}, time.Time{}
	}
}

// exports renders a result set's CSV as written and its JSON after
// wall-clock normalisation, without mutating rs.
func exports(t *testing.T, rs *campaign.ResultSet) (csv, js []byte) {
	t.Helper()
	var c bytes.Buffer
	if err := rs.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	norm := *rs
	norm.Results = append([]campaign.Result(nil), rs.Results...)
	normalizeWallClock(&norm)
	var j bytes.Buffer
	if err := norm.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), j.Bytes()
}

// diffCampaigns requires got to be result-for-result and export-for-
// export identical to want (CSV byte-identical as written; JSON after
// wall-clock normalisation).
func diffCampaigns(t *testing.T, name string, want, got *campaign.ResultSet) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", name, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := &want.Results[i], &got.Results[i]
		if !reflect.DeepEqual(w.Stats, g.Stats) {
			t.Errorf("%s: %s/%s/%s: stats diverge", name, g.Bench, g.Tech, g.Point)
		}
		if !reflect.DeepEqual(w.Sampled, g.Sampled) {
			t.Errorf("%s: %s/%s/%s: sampling meta diverges", name, g.Bench, g.Tech, g.Point)
		}
	}
	wantCSV, wantJSON := exports(t, want)
	gotCSV, gotJSON := exports(t, got)
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Errorf("%s: CSV export is not byte-identical", name)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("%s: JSON export is not byte-identical", name)
	}
}

// TestLockstepCampaignDifferential runs the 8-cell sweep per-cell
// (Lockstep off — the reference) and lockstep, sampled and exact, with
// and without a checkpoint store, and requires bit-identical campaigns
// throughout.
func TestLockstepCampaignDifferential(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []struct {
		name    string
		sampled bool
	}{{"sampled", true}, {"exact", false}} {
		t.Run(mode.name, func(t *testing.T) {
			spec := lockstepSpec(mode.sampled)
			ref, err := (&campaign.Engine{Workers: 2}).Run(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Executed != len(iqAxis) {
				t.Fatalf("reference executed %d of %d cells", ref.Executed, len(iqAxis))
			}

			store, err := ckpt.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			runs := []struct {
				name   string
				engine *campaign.Engine
			}{
				{"lockstep storeless", &campaign.Engine{Workers: 2, Lockstep: true}},
				{"lockstep cold store", &campaign.Engine{Workers: 2, Lockstep: true, Ckpt: store}},
				{"lockstep warm store", &campaign.Engine{Workers: 2, Lockstep: true, Ckpt: store}},
			}
			for _, run := range runs {
				rs, err := run.engine.Run(ctx, spec)
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				if rs.Executed != len(iqAxis) {
					t.Errorf("%s: executed %d of %d cells", run.name, rs.Executed, len(iqAxis))
				}
				diffCampaigns(t, run.name, ref, rs)
			}
			if mode.sampled {
				// All eight cells share one warming identity: the whole
				// batch generated one artifact and the warm run resumed it
				// with a single store read.
				if m := store.Metrics(); m.Generated != 1 || m.Hits != 1 {
					t.Errorf("store metrics = %+v, want 1 generate + 1 hit", m)
				}
			}
		})
	}
}
