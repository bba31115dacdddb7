package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways x 32B lines = 256 bytes.
	return MustNew(Config{Name: "t", SizeBytes: 256, LineBytes: 32, Assoc: 2, HitCycles: 1})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x100) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x100) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x11F) {
		t.Fatal("same-line access must hit")
	}
	if c.Access(0x120) {
		t.Fatal("next line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses 2 misses", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (set stride = 4 sets * 32B = 128B).
	a, b, d := uint64(0x000), uint64(0x080*4), uint64(0x080*8)
	// set = block % 4; choose addresses with block%4 == 0: 0, 128*4? block = addr/32.
	// block(a)=0, need block%4==0 -> addr = 0, 512, 1024.
	a, b, d = 0, 512, 1024
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("a (MRU) must survive")
	}
	if c.Contains(b) {
		t.Error("b (LRU) must be evicted")
	}
	if !c.Contains(d) {
		t.Error("d must be resident")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	cases := []Config{
		{Name: "x", SizeBytes: 100, LineBytes: 32, Assoc: 2},
		{Name: "x", SizeBytes: 0, LineBytes: 32, Assoc: 2},
		{Name: "x", SizeBytes: 64, LineBytes: 32, Assoc: 4}, // 2 lines, assoc 4
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted bad geometry %+v", cfg)
		}
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := MustNew(Config{Name: "t", SizeBytes: 1024, LineBytes: 32, Assoc: 2, HitCycles: 1})
	// Touch 1024 bytes twice; second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 1024; addr += 32 {
			c.Access(addr)
		}
	}
	if c.Stats.Misses != 32 {
		t.Errorf("misses = %d, want 32 (cold only)", c.Stats.Misses)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(HierarchyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Cold: miss everywhere.
	if lat := h.LoadLatency(0x4000); lat != 2+10+50 {
		t.Errorf("cold load latency = %d, want 62", lat)
	}
	// Now L1 hit.
	if lat := h.LoadLatency(0x4000); lat != 2 {
		t.Errorf("warm load latency = %d, want 2", lat)
	}
	// Evict from a tiny custom L1 to see an L2 hit.
	h2, _ := NewHierarchy(HierarchyConfig{
		DL1: Config{Name: "dl1", SizeBytes: 64, LineBytes: 32, Assoc: 1, HitCycles: 2},
	})
	h2.LoadLatency(0x0)   // cold
	h2.LoadLatency(0x800) // maps to same L1 set (64B direct-mapped, 2 sets)
	// 0x0 and 0x800: block 0 and 64; 2 sets -> both set 0. 0x0 evicted from L1 but in L2.
	if lat := h2.LoadLatency(0x0); lat != 2+10 {
		t.Errorf("L2 hit latency = %d, want 12", lat)
	}
}

func TestFetchLatency(t *testing.T) {
	h, _ := NewHierarchy(HierarchyConfig{})
	if lat := h.FetchLatency(0x100); lat != 1+10+50 {
		t.Errorf("cold fetch = %d, want 61", lat)
	}
	if lat := h.FetchLatency(0x104); lat != 1 {
		t.Errorf("same-line fetch = %d, want 1", lat)
	}
}

func TestStatsPropertyAccessesGrow(t *testing.T) {
	c := small()
	f := func(addrs []uint64) bool {
		before := c.Stats.Accesses
		for _, a := range addrs {
			c.Access(a & 0xFFFF)
		}
		return c.Stats.Accesses == before+int64(len(addrs)) &&
			c.Stats.Misses <= c.Stats.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestContainsAfterAccessProperty(t *testing.T) {
	c := small()
	f := func(addr uint64) bool {
		addr &= 0xFFFFF
		c.Access(addr)
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats must have 0 miss rate")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %f", s.MissRate())
	}
}
