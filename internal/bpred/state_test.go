package bpred

import (
	"bytes"
	"math/rand"
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
	data := p.AppendState(nil)

	fresh := New(Config{})
	if err := fresh.UnmarshalState(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.AppendState(nil), data) {
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
	if !bytes.Equal(p.AppendState(nil), fresh.AppendState(nil)) {
		t.Fatal("original and restored diverged under identical updates")
	}
}

func TestCloneIsolation(t *testing.T) {
	p := trained(t)
	snap := p.AppendState(nil)
	c := new(Predictor)
	p.CopyInto(c)
	if !bytes.Equal(c.AppendState(nil), snap) {
		t.Fatal("copy does not match original")
	}
	for i := 0; i < 3000; i++ {
		p.TrainCond(i%4096, true)
		p.UpdateBTB(i%4096, i)
	}
	if !bytes.Equal(c.AppendState(nil), snap) {
		t.Fatal("training the original changed the copy")
	}
	for i := 0; i < 3000; i++ {
		c.TrainCond((i*3)%4096, false)
	}
	if bytes.Equal(c.AppendState(nil), snap) {
		t.Fatal("training the copy had no effect (shared tables?)")
	}
}

// TestCopyIntoReusedStorage: copying into a predictor that holds other
// state — other counters and BTB entries, a deeper return-address stack,
// other statistics, even another configuration — leaves exactly the
// source's state, which then behaves like the source under a seeded
// random sequence of predictions and updates. The sampled engine copies
// every window into the storage of the window before.
func TestCopyIntoReusedStorage(t *testing.T) {
	src := New(Config{})
	for i := 0; i < 500; i++ {
		src.TrainCond((i*29)%4096, i%4 != 0)
		src.UpdateBTB((i*41)%4096, i)
	}
	src.WarmCall(100)
	src.WarmCall(200)
	src.Stats = Stats{CondLookups: 9, CondMispred: 2}
	deep := trained(t) // its return-address stack is full
	small := New(fuzzPredictor)
	small.WarmCall(4)
	for name, dst := range map[string]*Predictor{"deep": deep, "small": small, "zero": new(Predictor)} {
		src.CopyInto(dst)
		if !bytes.Equal(dst.AppendState(nil), src.AppendState(nil)) {
			t.Fatalf("%s: copy's state bytes differ from the source's", name)
		}
		if dst.Stats != src.Stats || dst.cfg != src.cfg {
			t.Fatalf("%s: copy's statistics or configuration differ from the source's", name)
		}
		ref := new(Predictor)
		src.CopyInto(ref)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20_000; i++ {
			pc := 4 * rng.Intn(8192)
			switch rng.Intn(4) {
			case 0:
				if a, b := ref.PredictCond(pc), dst.PredictCond(pc); a != b {
					t.Fatalf("%s: step %d: prediction %v on a fresh copy, %v on the reused one", name, i, a, b)
				}
				taken := rng.Intn(2) == 0
				ref.UpdateCond(pc, taken)
				dst.UpdateCond(pc, taken)
			case 1:
				ta, oka := ref.LookupBTB(pc)
				tb, okb := dst.LookupBTB(pc)
				if ta != tb || oka != okb {
					t.Fatalf("%s: step %d: BTB (%d,%v) on a fresh copy, (%d,%v) on the reused one", name, i, ta, oka, tb, okb)
				}
				ref.UpdateBTB(pc, i)
				dst.UpdateBTB(pc, i)
			case 2:
				ref.PushRAS(pc)
				dst.PushRAS(pc)
			default:
				pa, oka := ref.PopRAS(pc)
				pb, okb := dst.PopRAS(pc)
				if pa != pb || oka != okb {
					t.Fatalf("%s: step %d: return (%d,%v) on a fresh copy, (%d,%v) on the reused one", name, i, pa, oka, pb, okb)
				}
			}
		}
		if !bytes.Equal(dst.AppendState(nil), ref.AppendState(nil)) || dst.Stats != ref.Stats {
			t.Fatalf("%s: reused copy diverged from a fresh copy", name)
		}
	}
}

// TestAppendStateNonEmptyBuffer: encoding appends, so a buffer that
// already holds bytes — another prefix, or an earlier window's state
// reused through buf[:0] — yields exactly the bytes of an empty one.
func TestAppendStateNonEmptyBuffer(t *testing.T) {
	p := trained(t)
	want := p.AppendState(nil)
	prefix := []byte("prefix")
	got := p.AppendState(prefix)
	if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("appending after a prefix changed the prefix or the state bytes")
	}
	buf := New(Config{}).AppendState(nil)
	if got := p.AppendState(buf[:0]); !bytes.Equal(got, want) {
		t.Fatal("encoding into a reused buffer differs from encoding into an empty one")
	}
}

func TestUnmarshalStateConfigMismatch(t *testing.T) {
	p := trained(t)
	data := p.AppendState(nil)
	cfg := DefaultConfig()
	cfg.BTBEntries *= 2
	bigger := New(cfg)
	if err := bigger.UnmarshalState(data); err == nil {
		t.Fatal("state restored into a differently-configured predictor")
	}
}

func TestUnmarshalStateCorrupt(t *testing.T) {
	p := trained(t)
	data := p.AppendState(nil)
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
	withStats := p.AppendState(nil)
	if !bytes.Equal(withStats, trained(t).AppendState(nil)) {
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

// usedPredictor is a small predictor that already holds trained state,
// a full return-address stack and statistics of its own: the storage a
// reused decode overwrites.
func usedPredictor() *Predictor {
	p := New(fuzzPredictor)
	for i := 0; i < 200; i++ {
		p.PredictCond(4 * i)
		p.UpdateCond(4*i, i%3 == 0)
		p.LookupBTB(8 * i)
		p.UpdateBTB(8*i, 12*i)
		p.PushRAS(16 * i)
		if i%7 == 0 {
			p.PopRAS(0)
		}
	}
	return p
}

// FuzzPredictorState decodes arbitrary bytes as the warm state of a
// small predictor: the decoder reads bytes that workers upload inside
// checkpoint artifacts. Nothing may panic. Each input is decoded twice,
// into a fresh predictor and into one that already holds other state
// and statistics, as the artifact reader's reused storage does: both
// must accept or refuse it alike, an accepted state must re-marshal to
// the same bytes, with zero statistics, and its counters must be ones a
// predictor can reach. The committed seeds are a trained predictor's
// state, with a full and a partial BTB set (trained), and that state
// corrupted in one place each: a gshare counter of 48, which an earlier
// decoder accepted (counter), two ranks of the full set alike
// (duplicate-rank), its top rank above the associativity
// (rank-above-assoc), the partial set's top rank above its count of
// valid entries (rank-gap), and a tag or a target on an invalid entry
// (invalid-way-tag, invalid-way-target).
func FuzzPredictorState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, used := New(fuzzPredictor), usedPredictor()
		ferr, uerr := fresh.UnmarshalState(data), used.UnmarshalState(data)
		if (ferr == nil) != (uerr == nil) {
			t.Fatalf("fresh decode: %v; decode into used storage: %v", ferr, uerr)
		}
		if ferr != nil {
			return
		}
		for name, p := range map[string]*Predictor{"fresh": fresh, "used": used} {
			if !bytes.Equal(p.AppendState(nil), data) {
				t.Fatalf("%s: accepted state re-marshals to different bytes", name)
			}
			if p.Stats != (Stats{}) {
				t.Fatalf("%s: statistics survived the decode", name)
			}
			for _, table := range [][]uint8{p.gshare, p.bimodal, p.selector} {
				for i, c := range table {
					if c > 3 {
						t.Fatalf("%s: accepted counter %d of %d: 2-bit counters saturate at 3", name, i, c)
					}
				}
			}
		}
	})
}
