package bpred

import (
	"bytes"
	"testing"
)

// trained builds a default predictor and drives a deterministic mix of
// conditional training, BTB updates and RAS traffic through it.
func trained(t *testing.T) *Predictor {
	t.Helper()
	p := New(Config{})
	for i := 0; i < 6000; i++ {
		p.TrainCond((i*37)%4096, i%3 != 0)
		p.UpdateBTB((i*53)%4096, (i*7)%65536)
		if i%11 == 0 {
			p.WarmCall(i + 1)
		}
		if i%23 == 0 {
			p.WarmReturn()
		}
	}
	return p
}

func TestStateRoundTrip(t *testing.T) {
	p := trained(t)
	data := p.MarshalState()

	fresh := New(Config{})
	if err := fresh.UnmarshalState(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.MarshalState(), data) {
		t.Fatal("restored predictor re-serializes differently")
	}
	// Behavioral equivalence: identical queries and updates keep both
	// predictors in lockstep.
	for i := 0; i < 2000; i++ {
		pc := (i * 17) % 4096
		if a, b := p.PredictCond(pc), fresh.PredictCond(pc); a != b {
			t.Fatalf("pc %d: prediction %v vs %v after restore", pc, a, b)
		}
		ta, oka := p.LookupBTB(pc)
		tb, okb := fresh.LookupBTB(pc)
		if ta != tb || oka != okb {
			t.Fatalf("pc %d: BTB (%d,%v) vs (%d,%v) after restore", pc, ta, oka, tb, okb)
		}
		p.UpdateCond(pc, i%5 == 0)
		fresh.UpdateCond(pc, i%5 == 0)
	}
	if !bytes.Equal(p.MarshalState(), fresh.MarshalState()) {
		t.Fatal("original and restored diverged under identical updates")
	}
}

func TestCloneIsolation(t *testing.T) {
	p := trained(t)
	snap := p.MarshalState()
	c := p.Clone()
	if !bytes.Equal(c.MarshalState(), snap) {
		t.Fatal("clone does not match original")
	}
	for i := 0; i < 3000; i++ {
		p.TrainCond(i%4096, true)
		p.UpdateBTB(i%4096, i)
	}
	if !bytes.Equal(c.MarshalState(), snap) {
		t.Fatal("training the original changed the clone")
	}
	for i := 0; i < 3000; i++ {
		c.TrainCond((i*3)%4096, false)
	}
	if bytes.Equal(c.MarshalState(), snap) {
		t.Fatal("training the clone had no effect (shared tables?)")
	}
}

func TestUnmarshalStateConfigMismatch(t *testing.T) {
	p := trained(t)
	data := p.MarshalState()
	cfg := DefaultConfig()
	cfg.BTBEntries *= 2
	bigger := New(cfg)
	if err := bigger.UnmarshalState(data); err == nil {
		t.Fatal("state restored into a differently-configured predictor")
	}
}

func TestUnmarshalStateCorrupt(t *testing.T) {
	p := trained(t)
	data := p.MarshalState()
	fresh := New(Config{})
	if err := fresh.UnmarshalState(data[:len(data)/3]); err == nil {
		t.Error("truncated state accepted")
	}
	if err := fresh.UnmarshalState(append(append([]byte(nil), data...), 1, 2, 3)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if err := fresh.UnmarshalState(nil); err == nil {
		t.Error("empty state accepted")
	}
}

func TestStateExcludesStats(t *testing.T) {
	p := trained(t)
	p.Stats.CondLookups = 1234
	withStats := p.MarshalState()
	if !bytes.Equal(withStats, trained(t).MarshalState()) {
		t.Fatal("statistics leaked into serialized predictor state")
	}
	fresh := New(Config{})
	if err := fresh.UnmarshalState(withStats); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.CondLookups != 0 {
		t.Fatalf("restored predictor carries %d lookups", fresh.Stats.CondLookups)
	}
}

// fuzzPredictor is a small configuration — a few dozen entries per
// table — so mutations reach every counter and BTB entry.
var fuzzPredictor = Config{
	GshareEntries: 64, BimodalEntries: 64, SelectorEntries: 64, HistoryBits: 6,
	BTBEntries: 16, BTBAssoc: 4, RASEntries: 4,
}

// FuzzPredictorState decodes arbitrary bytes as the warm state of a
// small predictor: the decoder reads bytes that workers upload inside
// checkpoint artifacts. Nothing may panic, an accepted state must
// re-marshal to the same bytes, and its counters must be ones a
// predictor can reach. The committed seeds are a trained predictor's
// state and the same state with a gshare counter of 48, which an
// earlier decoder accepted.
func FuzzPredictorState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(fuzzPredictor)
		if p.UnmarshalState(data) != nil {
			return
		}
		if !bytes.Equal(p.MarshalState(), data) {
			t.Fatal("accepted state re-marshals to different bytes")
		}
		for _, table := range [][]uint8{p.gshare, p.bimodal, p.selector} {
			for i, c := range table {
				if c > 3 {
					t.Fatalf("accepted counter %d of %d: 2-bit counters saturate at 3", i, c)
				}
			}
		}
	})
}
