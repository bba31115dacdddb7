// Package cache implements the memory hierarchy of the paper's processor
// (table 1): a 64KB 2-way L1 instruction cache with 32-byte lines, a 64KB
// 4-way L1 data cache with 32-byte lines, and a 512KB 8-way unified L2
// with 64-byte lines. Caches are LRU and latency is returned per access so
// the out-of-order core can model variable load latency without blocking.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	HitCycles int
}

// Stats counts accesses per cache.
type Stats struct {
	Accesses int64
	Misses   int64
}

// MissRate returns misses/accesses.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	valid bool
	tag   uint64
	lru   int64
}

// Cache is one set-associative LRU cache level.
type Cache struct {
	cfg   Config
	sets  int
	lines []line // sets*assoc, set-major
	tick  int64
	Stats Stats
}

// New builds a cache; the geometry must divide evenly.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.LineBytes <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry", cfg.Name)
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	if linesTotal*cfg.LineBytes != cfg.SizeBytes {
		return nil, fmt.Errorf("cache %s: size %d not a multiple of line %d",
			cfg.Name, cfg.SizeBytes, cfg.LineBytes)
	}
	sets := linesTotal / cfg.Assoc
	if sets*cfg.Assoc != linesTotal || sets == 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by assoc %d",
			cfg.Name, linesTotal, cfg.Assoc)
	}
	return &Cache{cfg: cfg, sets: sets, lines: make([]line, linesTotal)}, nil
}

// MustNew is New that panics on bad geometry.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Access probes the cache for addr, filling on miss, and reports whether
// it hit. It is Touch plus statistics.
func (c *Cache) Access(addr uint64) bool {
	c.Stats.Accesses++
	hit := c.Touch(addr)
	if !hit {
		c.Stats.Misses++
	}
	return hit
}

// Touch is the functional-warming access path: it performs exactly the
// state transitions of Access — LRU promotion on hit, fill and victim
// eviction on miss — but charges nothing to Stats, so warming traffic
// between detailed sample windows keeps the cache hot without polluting
// the window's measured hit rates. It reports whether the access hit.
func (c *Cache) Touch(addr uint64) bool {
	set, tag := c.locate(addr)
	base := set * c.cfg.Assoc
	victim := base
	for i := 0; i < c.cfg.Assoc; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			c.tick++
			ln.lru = c.tick
			return true
		}
		if !ln.valid {
			victim = base + i
		} else if c.lines[victim].valid && ln.lru < c.lines[victim].lru {
			victim = base + i
		}
	}
	c.tick++
	c.lines[victim] = line{valid: true, tag: tag, lru: c.tick}
	return false
}

// Contains probes without filling or touching LRU state (for tests).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.locate(addr)
	base := set * c.cfg.Assoc
	for i := 0; i < c.cfg.Assoc; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *Cache) locate(addr uint64) (set int, tag uint64) {
	block := addr / uint64(c.cfg.LineBytes)
	return int(block % uint64(c.sets)), block / uint64(c.sets)
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Hierarchy is the full memory system: split L1s over a unified L2 over
// flat memory. Latencies are total cycles from access start to data.
type Hierarchy struct {
	IL1, DL1, L2 *Cache
	// MemCycles is the total latency of an access that misses everywhere.
	MemCycles int
}

// HierarchyConfig parameterises NewHierarchy; zero values take table 1.
type HierarchyConfig struct {
	IL1, DL1, L2 Config
	MemCycles    int
}

// DefaultHierarchyConfig is the paper's table 1 memory system. The paper
// quotes L2 "10 cycles hit, 50 cycles miss"; we interpret latencies as
// totals: L1 hit 2 (data) / 1 (inst), L2 hit 10+L1 probe, memory 50+prior
// probes.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		IL1:       Config{Name: "il1", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2, HitCycles: 1},
		DL1:       Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 32, Assoc: 4, HitCycles: 2},
		L2:        Config{Name: "l2", SizeBytes: 512 << 10, LineBytes: 64, Assoc: 8, HitCycles: 10},
		MemCycles: 50,
	}
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	cfg = cfg.WithDefaults()
	il1, err := New(cfg.IL1)
	if err != nil {
		return nil, err
	}
	dl1, err := New(cfg.DL1)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{IL1: il1, DL1: dl1, L2: l2, MemCycles: cfg.MemCycles}, nil
}

// LoadLatency models a data read at addr and returns its total latency.
func (h *Hierarchy) LoadLatency(addr uint64) int {
	if h.DL1.Access(addr) {
		return h.DL1.Config().HitCycles
	}
	if h.L2.Access(addr) {
		return h.DL1.Config().HitCycles + h.L2.Config().HitCycles
	}
	return h.DL1.Config().HitCycles + h.L2.Config().HitCycles + h.MemCycles
}

// StoreAccess models a store's cache write at commit (write-allocate).
// The returned latency is informational; stores buffer and do not stall.
func (h *Hierarchy) StoreAccess(addr uint64) int {
	return h.LoadLatency(addr)
}

// WarmLoad performs a data read's state transitions (DL1, then L2 on a
// DL1 miss) without statistics or latency — the functional-warming path
// the sampled-simulation engine drives between detailed windows.
func (h *Hierarchy) WarmLoad(addr uint64) {
	if !h.DL1.Touch(addr) {
		h.L2.Touch(addr)
	}
}

// WarmStore performs a store's state transitions without statistics
// (write-allocate, like StoreAccess).
func (h *Hierarchy) WarmStore(addr uint64) {
	h.WarmLoad(addr)
}

// WarmFetch performs an instruction fetch's state transitions (IL1, then
// L2 on an IL1 miss) without statistics.
func (h *Hierarchy) WarmFetch(pc int) {
	addr := uint64(pc)
	if !h.IL1.Touch(addr) {
		h.L2.Touch(addr)
	}
}

// FetchLatency models an instruction fetch of the line containing pc.
func (h *Hierarchy) FetchLatency(pc int) int {
	addr := uint64(pc)
	if h.IL1.Access(addr) {
		return h.IL1.Config().HitCycles
	}
	if h.L2.Access(addr) {
		return h.IL1.Config().HitCycles + h.L2.Config().HitCycles
	}
	return h.IL1.Config().HitCycles + h.L2.Config().HitCycles + h.MemCycles
}
