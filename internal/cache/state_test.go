package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// warmed builds a default hierarchy and drives a deterministic mixed
// access pattern through the warm paths.
func warmed(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		h.WarmLoad(uint64(0x10_0000 + 64*i*(i%7+1)))
		h.WarmStore(uint64(0x40_0000 + 32*i))
		h.WarmFetch((i * 13) % 5000)
	}
	return h
}

func TestStateRoundTrip(t *testing.T) {
	h := warmed(t)
	data := h.AppendState(nil)

	fresh, err := NewHierarchy(HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalState(data); err != nil {
		t.Fatal(err)
	}
	// The restored state must re-serialize byte-identically — the
	// property resume bit-identity rests on.
	if !bytes.Equal(fresh.AppendState(nil), data) {
		t.Fatal("restored hierarchy re-serializes differently")
	}
	// And must behave identically: the same access stream produces the
	// same hits/misses, hence the same subsequent state.
	for i := 0; i < 1000; i++ {
		addr := uint64(0x10_0000 + 64*i*3)
		if a, b := h.LoadLatency(addr), fresh.LoadLatency(addr); a != b {
			t.Fatalf("access %d: latency %d on original, %d on restored", i, a, b)
		}
	}
	if !bytes.Equal(h.AppendState(nil), fresh.AppendState(nil)) {
		t.Fatal("original and restored diverged under identical accesses")
	}
}

func TestCloneIsolation(t *testing.T) {
	h := warmed(t)
	snap := h.AppendState(nil)
	c := new(Hierarchy)
	h.CopyInto(c)
	if !bytes.Equal(c.AppendState(nil), snap) {
		t.Fatal("copy does not match original")
	}
	// Mutating the original must not leak into the copy, and vice versa.
	for i := 0; i < 2000; i++ {
		h.WarmLoad(uint64(0x90_0000 + 64*i))
	}
	if !bytes.Equal(c.AppendState(nil), snap) {
		t.Fatal("mutating the original changed the copy")
	}
	for i := 0; i < 2000; i++ {
		c.WarmFetch(9000 + i)
	}
	if bytes.Equal(c.AppendState(nil), snap) {
		t.Fatal("mutating the copy had no effect (shared storage?)")
	}
}

// TestCopyIntoReusedStorage: copying into a hierarchy that holds other
// state — other lines, other LRU ticks, other statistics, even another
// geometry — leaves exactly the source's state, which then behaves like
// the source under a seeded random access sequence. The sampled engine
// copies every window into the storage of the window before.
func TestCopyIntoReusedStorage(t *testing.T) {
	src := warmed(t)
	src.DL1.Stats = Stats{Accesses: 7, Misses: 3}
	other, err := NewHierarchy(HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		other.LoadLatency(uint64(0x70_0000 + 96*i))
		other.FetchLatency(4 * i)
	}
	small, err := NewHierarchy(fuzzHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	small.WarmLoad(0x1234)
	for name, dst := range map[string]*Hierarchy{"warm": other, "small": small, "zero": new(Hierarchy)} {
		src.CopyInto(dst)
		if !bytes.Equal(dst.AppendState(nil), src.AppendState(nil)) {
			t.Fatalf("%s: copy's state bytes differ from the source's", name)
		}
		if dst.DL1.Stats != src.DL1.Stats || dst.MemCycles != src.MemCycles || dst.L2.Config() != src.L2.Config() {
			t.Fatalf("%s: copy's statistics or configuration differ from the source's", name)
		}
		ref := new(Hierarchy)
		src.CopyInto(ref)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20_000; i++ {
			addr := uint64(rng.Int63n(1 << 22))
			var a, b int
			switch rng.Intn(3) {
			case 0:
				a, b = ref.LoadLatency(addr), dst.LoadLatency(addr)
			case 1:
				a, b = ref.FetchLatency(int(addr)), dst.FetchLatency(int(addr))
			default:
				ref.WarmStore(addr)
				dst.WarmStore(addr)
			}
			if a != b {
				t.Fatalf("%s: access %d at %#x: latency %d on a fresh copy, %d on the reused one", name, i, addr, a, b)
			}
		}
		if !bytes.Equal(dst.AppendState(nil), ref.AppendState(nil)) || dst.DL1.Stats != ref.DL1.Stats {
			t.Fatalf("%s: reused copy diverged from a fresh copy", name)
		}
	}
}

// TestAppendStateNonEmptyBuffer: encoding appends, so a buffer that
// already holds bytes — another prefix, or an earlier window's state
// reused through buf[:0] — yields exactly the bytes of an empty one.
func TestAppendStateNonEmptyBuffer(t *testing.T) {
	h := warmed(t)
	want := h.AppendState(nil)
	prefix := []byte("prefix")
	got := h.AppendState(prefix)
	if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("appending after a prefix changed the prefix or the state bytes")
	}
	other, err := NewHierarchy(HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	buf := other.AppendState(nil)
	if got := h.AppendState(buf[:0]); !bytes.Equal(got, want) {
		t.Fatal("encoding into a reused buffer differs from encoding into an empty one")
	}
}

func TestUnmarshalStateGeometryMismatch(t *testing.T) {
	h := warmed(t)
	data := h.AppendState(nil)

	cfg := DefaultHierarchyConfig()
	cfg.DL1.SizeBytes *= 2
	bigger, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bigger.UnmarshalState(data); err == nil {
		t.Fatal("state restored into a differently-shaped hierarchy")
	}
}

func TestUnmarshalStateCorrupt(t *testing.T) {
	h := warmed(t)
	data := h.AppendState(nil)
	fresh, err := NewHierarchy(HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalState(data[:len(data)/2]); err == nil {
		t.Error("truncated state accepted")
	}
	if err := fresh.UnmarshalState(append(append([]byte(nil), data...), 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if err := fresh.UnmarshalState(nil); err == nil {
		t.Error("empty state accepted")
	}
}

// TestStateExcludesStats: statistics are measurements, not state — they
// must neither serialize nor survive a restore.
func TestStateExcludesStats(t *testing.T) {
	h := warmed(t)
	h.DL1.Stats = Stats{Accesses: 999, Misses: 42}
	withStats := h.AppendState(nil)
	h2 := warmed(t)
	if !bytes.Equal(withStats, h2.AppendState(nil)) {
		t.Fatal("statistics leaked into serialized warm state")
	}
	fresh, _ := NewHierarchy(HierarchyConfig{})
	if err := fresh.UnmarshalState(withStats); err != nil {
		t.Fatal(err)
	}
	if fresh.DL1.Stats.Accesses != 0 {
		t.Fatalf("restored hierarchy carries %d DL1 accesses", fresh.DL1.Stats.Accesses)
	}
}

// fuzzHierarchy is a small geometry — a few dozen lines per level — so
// mutations reach every field of every line.
var fuzzHierarchy = HierarchyConfig{
	IL1:       Config{Name: "il1", SizeBytes: 512, LineBytes: 32, Assoc: 2, HitCycles: 1},
	DL1:       Config{Name: "dl1", SizeBytes: 512, LineBytes: 32, Assoc: 2, HitCycles: 2},
	L2:        Config{Name: "l2", SizeBytes: 2048, LineBytes: 64, Assoc: 4, HitCycles: 10},
	MemCycles: 50,
}

// usedHierarchy is a small hierarchy that already holds warm state and
// statistics of its own: the storage a reused decode overwrites.
func usedHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(fuzzHierarchy)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		h.LoadLatency(uint64(0x4000 + 40*i))
		h.FetchLatency(12 * i)
	}
	return h
}

// FuzzHierarchyState decodes arbitrary bytes as the warm state of a
// small hierarchy: the decoder reads bytes that workers upload inside
// checkpoint artifacts. Nothing may panic. Each input is decoded twice,
// into a fresh hierarchy and into one that already holds other warm
// state and statistics, as the artifact reader's reused storage does:
// both must accept or refuse it alike, and an accepted state must
// re-marshal to the same bytes, with zero statistics. The committed
// seeds are a warmed hierarchy's state (warm) and that state corrupted
// in one place each: an invalid line's rank byte set to 0x30, which is
// above the associativity (valid-byte: a rank byte is a line's valid
// flag too, and an earlier decoder accepted a valid byte of 0x30 as
// true), two ranks of a full set alike (duplicate-rank), a full set's
// top rank above its associativity (rank-above-assoc), a partial set's
// top rank above its count of valid lines (rank-gap), and a tag on an
// invalid line (invalid-way-tag).
func FuzzHierarchyState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := NewHierarchy(fuzzHierarchy)
		if err != nil {
			t.Fatal(err)
		}
		used := usedHierarchy(t)
		ferr, uerr := fresh.UnmarshalState(data), used.UnmarshalState(data)
		if (ferr == nil) != (uerr == nil) {
			t.Fatalf("fresh decode: %v; decode into used storage: %v", ferr, uerr)
		}
		if ferr != nil {
			return
		}
		for name, h := range map[string]*Hierarchy{"fresh": fresh, "used": used} {
			if !bytes.Equal(h.AppendState(nil), data) {
				t.Fatalf("%s: accepted state re-marshals to different bytes", name)
			}
			if h.IL1.Stats != (Stats{}) || h.DL1.Stats != (Stats{}) || h.L2.Stats != (Stats{}) {
				t.Fatalf("%s: statistics survived the decode", name)
			}
		}
	})
}
