package sample_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binio"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The counts here pin work the checkpoint store saves, so that switching
// an optimisation off fails a test even where every result stays the
// same and only wall time would show it.

// windowCheckpoints splits an artifact's record stream into its windows'
// emulator checkpoint bytes. It reads the container layout of
// internal/ckpt: a 20-byte header, then records of a tag byte, a u32
// length and a payload, a window's payload opening with its start, its
// hint and its u32-length-prefixed checkpoint.
func windowCheckpoints(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	r := binio.NewReader(stream)
	r.Raw(20)
	var out [][]byte
	for r.Remaining() > 0 {
		tag, payload := r.U8(), r.Raw(int(r.U32()))
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if tag != 1 {
			continue
		}
		w := binio.NewReader(payload)
		w.I64()
		w.I64()
		ck := w.Raw(int(w.U32()))
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		out = append(out, ck)
	}
	return out
}

// TestArtifactCounts pins the inflated record-stream length of the gzip
// and mcf artifacts at testBudget under testRegime(), exactly, and bounds
// their gzip length, which the flate implementation may change. Format 2
// inflated to 444,227 bytes for gzip and 1,992,195 for mcf, and gzipped
// to 25,799 and 332,574 (BestSpeed, go1.24). mcf's windows carry only the
// pages the program wrote: the first window's checkpoint decodes as a
// delta against a fresh emulator's, which holds exactly the data image
// and which a carried page may not equal, and its checkpoints total less
// than one image page record per window.
func TestArtifactCounts(t *testing.T) {
	for _, tc := range []struct {
		bench           string
		inflated, gzMax int
	}{
		{"gzip", 227_451, 20_000},
		{"mcf", 771_019, 120_000},
	} {
		b, ok := workload.ByName(tc.bench)
		if !ok {
			t.Fatalf("no %s workload", tc.bench)
		}
		p := b.Build(42)
		dir := t.TempDir()
		st, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sample.RunLockstepStored(context.Background(), []sim.Config{sim.DefaultConfig()}, p, testBudget, testRegime(), st, reuseKey); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, reuseKey[:2], reuseKey+".ckpt")
		stream := gunzipFile(t, path)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes inflated, %d gzipped", tc.bench, len(stream), info.Size())
		if len(stream) != tc.inflated {
			t.Errorf("%s: record stream is %d bytes, want %d", tc.bench, len(stream), tc.inflated)
		}
		if info.Size() >= int64(tc.gzMax) {
			t.Errorf("%s: artifact is %d bytes gzipped, want under %d", tc.bench, info.Size(), tc.gzMax)
		}
		if tc.bench != "mcf" {
			continue
		}
		cks := windowCheckpoints(t, stream)
		image := emu.MustNew(p).Checkpoint()
		if _, err := emu.UnmarshalCheckpointDelta(cks[0], p, &image); err != nil {
			t.Errorf("mcf: the first window does not decode against the data image: %v", err)
		}
		total := 0
		for _, ck := range cks {
			total += len(ck)
		}
		if pageRecord := 8 + 4096; total >= len(cks)*pageRecord {
			t.Errorf("mcf: %d windows' checkpoints total %d bytes, want under one page record (%d bytes) a window", len(cks), total, pageRecord)
		}
	}
}

// TestLockstepSweepArtifactCounts runs a 2-benchmark × 2-IQ sampled
// sweep in lockstep on one checkpoint store, twice. Each benchmark is
// one warming identity and one lockstep batch: the cold store generates
// one artifact per identity, and the warm one generates none and resumes
// each identity once.
func TestLockstepSweepArtifactCounts(t *testing.T) {
	spec := lockstepSpec(true)
	spec.Benchmarks = []string{"gzip", "mcf"}
	spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: []int{32, 64}}}
	st, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name            string
		generated, hits int64
	}{{"cold", 2, 0}, {"warm", 2, 2}} {
		rs, err := (&campaign.Engine{Workers: 2, Lockstep: true, Ckpt: st}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Executed != 4 {
			t.Fatalf("%s: executed %d of 4 cells", run.name, rs.Executed)
		}
		if m := st.Metrics(); m.Generated != run.generated || m.Hits != run.hits {
			t.Errorf("%s store: metrics %+v, want %d generated and %d resumed in all", run.name, m, run.generated, run.hits)
		}
	}
}
