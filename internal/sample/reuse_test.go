package sample_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/prog"
	"repro/internal/sample"
	"repro/internal/sim"
)

// The sampled path keeps each window's state in storage reused from
// window to window: one published copy per run, one fork and one
// detailed core per lockstep cell, double-buffered state bytes in the
// artifact writer, and one decoded window in the artifact reader. The
// tests here pin what that reuse must not change (the artifact's bytes)
// and what it buys (allocation per window).

const reuseKey = "ab12cd34ab12cd34ab12cd34ab12cd34"

// gunzipFile returns the decompressed contents of a gzip file.
func gunzipFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestArtifactMatchesFixture regenerates the artifact in testdata/gzip.ckpt
// and compares the two decompressed record streams byte for byte. The
// fixture's state was written by a build that cloned the hierarchy and
// the predictor for every window and encoded them into fresh buffers
// (commit 56c41c8): gzip, seed 42, testBudget under testRegime(), 15
// windows. That build wrote format 2 (internal/ckpt/testdata/v2.ckpt);
// the fixture is that file converted to format 3, each window decoded
// with the format-2 codecs and encoded with the format-3 ones, not
// regenerated. It is regenerated here solo and as the 8-cell batch,
// whose last cell runs on the very storage the next window is encoded
// from.
func TestArtifactMatchesFixture(t *testing.T) {
	want := gunzipFile(t, "testdata/gzip.ckpt")
	for _, tc := range []struct {
		name string
		cfgs []sim.Config
	}{{"solo", []sim.Config{sim.DefaultConfig()}}, {"iq8", iqConfigs()}} {
		dir := t.TempDir()
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := sample.RunLockstepStored(context.Background(), tc.cfgs, buildGzip(t).Build(42), testBudget, testRegime(), st, reuseKey)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(cells[0].Report.Windows); n != 15 {
			t.Fatalf("%s: %d windows, want 15", tc.name, n)
		}
		got := gunzipFile(t, filepath.Join(dir, reuseKey[:2], reuseKey+".ckpt"))
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: record stream differs from the fixture at byte %d (%d bytes, fixture %d)", tc.name, i, len(got), len(want))
		}
	}
}

// allocRegime is the allocation guards' regime: sparse (2k window every
// 200k, 20k warm-up, 1k fill), so that set-up is small next to windows.
var allocRegime = sample.Config{WindowInsts: 2000, PeriodInsts: 200_000, WarmupInsts: 20_000, DetailWarmupInsts: 1000}

// checkWindowAllocation runs gzip sampled under allocRegime at 1M and
// 2M budgets, each on a store of its own, and requires the bytes
// allocated per window — the TotalAlloc difference over the difference
// in window count, which cancels set-up — to stay under a quarter of one
// encoded warm state (the hierarchy's plus the predictor's state bytes)
// per cell. Forking, encoding or decoding the warm state into fresh
// storage costs about a whole one per copy, and building a detailed
// core per window about half of one, so a regression to either fails.
// With resume set, each run first generates and publishes the artifact
// unmeasured, and the measured run resumes every window from it.
func checkWindowAllocation(t *testing.T, resume bool) {
	cfg := sim.DefaultConfig()
	h, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		t.Fatal(err)
	}
	stateBytes := len(h.AppendState(nil)) + len(bpred.New(cfg.Bpred).AppendState(nil))
	b := buildGzip(t)
	for _, tc := range []struct {
		name string
		cfgs []sim.Config
	}{{"solo", []sim.Config{cfg}}, {"iq8", iqConfigs()}} {
		run := func(st *ckpt.Store, p *prog.Program, budget int64) []sample.Cell {
			cells, err := sample.RunLockstepStored(context.Background(), tc.cfgs, p, budget, allocRegime, st, reuseKey)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				if c.Err != nil {
					t.Fatal(c.Err)
				}
			}
			return cells
		}
		measure := func(budget int64) (alloc int64, windows int) {
			st, err := ckpt.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			p := b.Build(42)
			if resume {
				run(st, p, budget)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cells := run(st, p, budget)
			runtime.ReadMemStats(&after)
			if m := st.Metrics(); m.Generated != 1 || resume && m.Hits != 1 {
				t.Fatalf("%s: store metrics %+v: want one published artifact (and, resuming, one hit)", tc.name, m)
			}
			return int64(after.TotalAlloc - before.TotalAlloc), len(cells[0].Report.Windows)
		}
		a1, w1 := measure(1_000_000)
		a2, w2 := measure(2_000_000)
		if w2 <= w1 {
			t.Fatalf("%s: %d windows at 2M, %d at 1M", tc.name, w2, w1)
		}
		perWindow := (a2 - a1) / int64(w2-w1)
		bound := int64(len(tc.cfgs) * stateBytes / 4)
		t.Logf("%s: %d KB per window (%d windows more), bound %d KB (%d cells x a quarter of %d KB of state)",
			tc.name, perWindow>>10, w2-w1, bound>>10, len(tc.cfgs), stateBytes>>10)
		if perWindow >= bound {
			t.Errorf("%s: %d bytes allocated per window, want less than %d: is window state forked, encoded or decoded into fresh storage, or a detailed core built per window?",
				tc.name, perWindow, bound)
		}
	}
}

// TestSteadyStateWindowAllocation is the allocation guard of the
// generate path: on a fresh store every window is generated and
// published.
func TestSteadyStateWindowAllocation(t *testing.T) {
	checkWindowAllocation(t, false)
}

// TestResumedWindowAllocation is the allocation guard of the resume
// path: on a warm store every window is decoded from the artifact.
func TestResumedWindowAllocation(t *testing.T) {
	checkWindowAllocation(t, true)
}
