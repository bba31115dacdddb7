// Differential harness for idle-cycle skipping: RunSegment jumps over
// cycles in which nothing can happen and charges them in bulk, and must
// leave exactly the Stats, and feed a Probe exactly the (cycle, sample)
// sequence, of stepping every cycle. The stepwise reference below is
// RunSegment's loop without the skip.
package sim

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/workload"
)

// runStepwise is RunSegment stepping every cycle: no skip, and a poll
// whenever the cycle count lands on a multiple of ctxPollCycles.
func (c *Core) runStepwise(ctx context.Context, target int64) (Stats, error) {
	c.segTarget = target
	var err error
	for !c.done() {
		c.step()
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			break
		}
		if c.cycle&(ctxPollCycles-1) == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
	}
	return c.snapshot(), err
}

// traceProbe folds every (cycle, sample) pair it receives into an FNV-1a
// hash over 64-bit words and checks that the cycles arrive one at a time,
// in order.
type traceProbe struct {
	h     uint64
	n     int64
	last  int64
	first string // first out-of-order cycle, if any
}

func (p *traceProbe) Sample(cycle int64, s ProbeSample) {
	if cycle != p.last+1 && p.first == "" {
		p.first = fmt.Sprintf("cycle %d sampled after %d", cycle, p.last)
	}
	p.last = cycle
	p.n++
	if p.n == 1 {
		p.h = 14695981039346656037
	}
	for _, v := range [...]int{int(cycle), s.IQCount, s.IQBanksOn, s.MaxNewRange, s.IntRFLive, s.ROBCount, s.FetchQueue} {
		p.h = (p.h ^ uint64(v)) * 1099511628211
	}
}

// techniques are the paper's five configurations: the uncontrolled
// baseline, the three compiler techniques and the abella controller.
var techniques = []struct {
	name string
	opt  *core.Options
	ctrl ControlMode
}{
	{name: "baseline", ctrl: ControlNone},
	{name: "NOOP", opt: &core.Options{Mode: core.ModeNOOP}, ctrl: ControlHints},
	{name: "Extension", opt: &core.Options{Mode: core.ModeTag}, ctrl: ControlHints},
	{name: "Improved", opt: &core.Options{Mode: core.ModeTag, Improved: true}, ctrl: ControlHints},
	{name: "abella", ctrl: ControlAdaptive},
}

// Indexes into techniques.
const (
	techBaseline = iota
	techNOOP
	techExtension
	techImproved
	techAbella
)

var (
	programsMu sync.Mutex
	programs   = map[string]*prog.Program{}
)

// program builds (once) the benchmark at seed 42, instrumented for the
// technique.
func program(t testing.TB, bench string, tech int) *prog.Program {
	t.Helper()
	key := fmt.Sprintf("%s/%d", bench, tech)
	programsMu.Lock()
	defer programsMu.Unlock()
	if p, ok := programs[key]; ok {
		return p
	}
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	p := b.Build(42)
	if opt := techniques[tech].opt; opt != nil {
		if _, err := core.Instrument(p, *opt); err != nil {
			t.Fatal(err)
		}
	}
	programs[key] = p
	return p
}

// skipCase is one configuration run both ways.
type skipCase struct {
	name   string
	bench  string
	tech   int
	budget int64
	// split, when positive, runs two segments, to split and then to the
	// budget, as a sampled window's warm-up and measured unit do.
	split int64
	cfg   func(*Config)
}

// skipRun is one run's outcome: the Stats after each segment, the probe
// trace, and the core (for post-run checks).
type skipRun struct {
	stats []Stats
	probe *traceProbe
	core  *Core
}

// runSkipCase runs tc to its end, by RunSegment or stepwise, with or
// without a trace probe, on a new core or, when c is not nil, on c,
// reset for the run with a new hierarchy and predictor as New builds
// them.
func runSkipCase(t testing.TB, c *Core, tc skipCase, stepwise, probed bool) skipRun {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Control = techniques[tc.tech].ctrl
	cfg.MaxInsts = tc.budget
	cfg.MaxCycles = SafetyCycles(tc.budget)
	if tc.cfg != nil {
		tc.cfg(&cfg)
	}
	var r skipRun
	if probed {
		r.probe = &traceProbe{}
		cfg.Probe = r.probe
	}
	e, err := emu.New(program(t, tc.bench, tc.tech))
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	if c == nil {
		if r.core, err = New(cfg, e); err != nil {
			t.Fatal(err)
		}
	} else {
		mem, err := cache.NewHierarchy(cfg.Caches)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Reset(cfg, e, mem, bpred.New(cfg.Bpred)); err != nil {
			t.Fatal(err)
		}
		r.core = c
	}
	targets := []int64{0}
	if tc.split > 0 {
		targets = []int64{tc.split, 0}
	}
	for _, target := range targets {
		run := r.core.RunSegment
		if stepwise {
			run = r.core.runStepwise
		}
		st, err := run(context.Background(), target)
		if err != nil {
			t.Fatal(err)
		}
		r.stats = append(r.stats, st)
	}
	return r
}

// checkSkipCase compares the skipping core, with and without a probe,
// against the stepwise reference and returns the skipping run.
func checkSkipCase(t testing.TB, tc skipCase) skipRun {
	t.Helper()
	ref := runSkipCase(t, nil, tc, true, true)
	got := runSkipCase(t, nil, tc, false, true)
	bare := runSkipCase(t, nil, tc, false, false)
	for i := range ref.stats {
		for _, run := range []struct {
			name string
			st   Stats
		}{{"probed", got.stats[i]}, {"unprobed", bare.stats[i]}} {
			if !reflect.DeepEqual(run.st, ref.stats[i]) {
				for _, d := range statsDiff(run.st, ref.stats[i]) {
					t.Errorf("%s: segment %d, %s skipping core vs stepwise: %s", tc.name, i, run.name, d)
				}
			}
		}
	}
	for _, p := range []*traceProbe{ref.probe, got.probe} {
		if p.first != "" {
			t.Errorf("%s: probe: %s", tc.name, p.first)
		}
	}
	if got.probe.n != ref.probe.n || got.probe.h != ref.probe.h {
		t.Errorf("%s: probe traces differ: skipping %d samples (hash %x), stepwise %d (hash %x)",
			tc.name, got.probe.n, got.probe.h, ref.probe.n, ref.probe.h)
	}
	if last := ref.stats[len(ref.stats)-1]; ref.probe.n != last.Cycles {
		t.Errorf("%s: %d probe samples for %d cycles", tc.name, ref.probe.n, last.Cycles)
	}
	return got
}

// skipBudget is the table's instruction budget per run.
const skipBudget = 50_000

func longMemory(cfg *Config) { cfg.Caches.MemCycles = 10_000 }

// eagerAdaptive makes the abella controller decide every 37 cycles and
// shrink on any interval, with the ROB uncapped so that the queue, not
// the ROB, fills: its decisions then land inside idle stretches and
// unblock size-limited dispatch.
func eagerAdaptive(cfg *Config) {
	cfg.Adaptive.IntervalCycles = 37
	cfg.Adaptive.ShrinkThreshold = 1
	cfg.Adaptive.MinBanks = 1
	cfg.Adaptive.ROBLimit = 0
	cfg.Adaptive.ProbeIntervals = 0
}

// charges are the Stats fields an idle cycle can bump, which the skip
// charges in bulk; the table must make each of them fire.
var charges = []struct {
	name string
	get  func(*Stats) int64
}{
	{"StallFetchEmpty", func(s *Stats) int64 { return s.StallFetchEmpty }},
	{"StallROBFull", func(s *Stats) int64 { return s.StallROBFull }},
	{"StallHintLimit", func(s *Stats) int64 { return s.StallHintLimit }},
	{"StallSizeLimit", func(s *Stats) int64 { return s.StallSizeLimit }},
	{"StallIQFull", func(s *Stats) int64 { return s.StallIQFull }},
	{"StallLSQFull", func(s *Stats) int64 { return s.StallLSQFull }},
	{"StallNoPhysReg", func(s *Stats) int64 { return s.StallNoPhysReg }},
	{"IntRF.AllocFails", func(s *Stats) int64 { return s.IntRF.AllocFails }},
	{"HintsApplied", func(s *Stats) int64 { return s.HintsApplied }},
	{"Resizes", func(s *Stats) int64 { return s.Resizes }},
	{"LatencyClamped", func(s *Stats) int64 { return s.LatencyClamped }},
}

// TestIdleSkipMatchesStepwise runs the paper's 11 benchmarks under its 5
// techniques, plus configurations that reach every skip bound and every
// charge the skip replays, both ways.
func TestIdleSkipMatchesStepwise(t *testing.T) {
	var cases []skipCase
	for _, b := range workload.Suite() {
		for tech := range techniques {
			cases = append(cases, skipCase{name: b.Name + "/" + techniques[tech].name, bench: b.Name, tech: tech})
		}
	}
	cases = append(cases,
		skipCase{name: "collapsible", bench: "gzip", tech: techExtension, cfg: func(cfg *Config) { cfg.IQ.Collapsible = true }},
		skipCase{name: "tiny-rob", bench: "gcc", tech: techBaseline, cfg: func(cfg *Config) { cfg.ROBSize = 16 }},
		skipCase{name: "tiny-lsq", bench: "gzip", tech: techBaseline, cfg: func(cfg *Config) { cfg.LSQSize = 2 }},
		skipCase{name: "tiny-regs", bench: "vortex", tech: techExtension, cfg: func(cfg *Config) { cfg.IntRF.Regs, cfg.FPRF.Regs = 40, 40 }},
		skipCase{name: "long-memory", bench: "mcf", tech: techExtension, budget: 10_000, cfg: longMemory},
		skipCase{name: "long-memory/abella", bench: "gcc", tech: techAbella, budget: 10_000, cfg: longMemory},
		skipCase{name: "adaptive-short-interval", bench: "gzip", tech: techAbella, cfg: eagerAdaptive},
		skipCase{name: "adaptive-short-interval/mcf", bench: "mcf", tech: techAbella, budget: 10_000, cfg: eagerAdaptive},
		skipCase{name: "two-segments", bench: "bzip2", tech: techNOOP, split: 20_000},
		skipCase{name: "two-segments/long-memory", bench: "gcc", tech: techImproved, budget: 10_000, split: 3_000, cfg: longMemory},
	)
	var (
		mu    sync.Mutex
		fired = make([]int64, len(charges))
	)
	t.Run("cases", func(t *testing.T) {
		for _, tc := range cases {
			if tc.budget == 0 {
				tc.budget = skipBudget
			}
			t.Run(tc.name, func(t *testing.T) {
				t.Parallel()
				r := checkSkipCase(t, tc)
				st := r.stats[len(r.stats)-1]
				mu.Lock()
				defer mu.Unlock()
				for i, ch := range charges {
					fired[i] += ch.get(&st)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	for i, ch := range charges {
		if fired[i] == 0 {
			t.Errorf("no case exercised %s", ch.name)
		}
	}
}

// TestIdleSkipStopsAtMaxCycles cuts long-memory runs at MaxCycles values
// that fall inside a skip: the skip must stop there, as stepping does.
func TestIdleSkipStopsAtMaxCycles(t *testing.T) {
	midSkip := 0
	for _, maxCycles := range []int64{15_001, 25_000, 33_333, 47_777} {
		tc := skipCase{
			name:   fmt.Sprintf("max-cycles-%d", maxCycles),
			bench:  "mcf",
			tech:   techBaseline,
			budget: 10_000,
			cfg: func(cfg *Config) {
				longMemory(cfg)
				cfg.MaxCycles = maxCycles
			},
		}
		r := checkSkipCase(t, tc)
		if got := r.stats[0].Cycles; got != maxCycles {
			t.Fatalf("%s: ran %d cycles, want MaxCycles", tc.name, got)
		}
		// The pending event lies beyond the cut: the run ended in a skip.
		if r.core.nextEvent() > maxCycles+1 {
			midSkip++
		}
	}
	if midSkip == 0 {
		t.Error("no MaxCycles cut fell inside a skip")
	}
}

// TestIdleSkipSkipsMemoryStalls checks the mechanism itself: on the
// memory-bound benchmark most cycles are idle and skipped, not stepped.
func TestIdleSkipSkipsMemoryStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 20_000
	cfg.MaxCycles = SafetyCycles(cfg.MaxInsts)
	e, err := emu.New(program(t, "mcf", techBaseline))
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	c, err := New(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	stepped := int64(0)
	for !c.done() && c.cycle < cfg.MaxCycles {
		stepped++
		if c.step() {
			c.skipIdle()
		}
	}
	if stepped*2 > c.cycle {
		t.Errorf("stepped %d of %d cycles; want fewer than half", stepped, c.cycle)
	}
}

// FuzzIdleSkip draws a benchmark, a technique and a machine from the
// input — resource sizes, memory latency, adaptive interval, MaxCycles,
// queue kind and a segment split — and requires the skipping core to
// match the stepwise reference. It runs the drawn machine once more on
// a core that first ran a seed machine (a collapsible queue under hints,
// cut by MaxCycles with work in flight) and was then reset, as the
// sampled engine reuses a cell's core: that run must match too.
func FuzzIdleSkip(f *testing.F) {
	seed := skipCase{name: "seed", bench: "vortex", tech: techExtension, budget: 4000, cfg: func(cfg *Config) {
		cfg.IQ.Collapsible = true
		cfg.ROBSize = 200
		cfg.MaxCycles = 1999
	}}
	f.Add(uint8(3), uint8(0), uint16(3000), uint8(16), uint8(4), uint8(1), uint16(50), uint16(2000), uint32(0), false, uint16(0))
	f.Add(uint8(8), uint8(2), uint16(2000), uint8(120), uint8(63), uint8(9), uint16(10_000), uint16(40), uint32(9_999), false, uint16(700))
	f.Add(uint8(2), uint8(4), uint16(2500), uint8(64), uint8(8), uint8(3), uint16(600), uint16(21), uint32(0), true, uint16(1200))
	suite := workload.Suite()
	f.Fuzz(func(t *testing.T, bench, tech uint8, budget uint16, rob, lsq, regs uint8,
		memCycles, interval uint16, maxCycles uint32, collapsible bool, split uint16) {
		tc := skipCase{
			bench:  suite[int(bench)%len(suite)].Name,
			tech:   int(tech) % len(techniques),
			budget: 200 + int64(budget)%4000,
		}
		if split > 0 {
			tc.split = 1 + int64(split)%tc.budget
		}
		tc.name = fmt.Sprintf("%s/%s", tc.bench, techniques[tc.tech].name)
		tc.cfg = func(cfg *Config) {
			cfg.ROBSize = 8 + int(rob)%121
			cfg.LSQSize = 1 + int(lsq)%64
			cfg.IntRF.Regs = 40 + 8*(int(regs)%10)
			cfg.FPRF.Regs = cfg.IntRF.Regs
			cfg.Caches.MemCycles = 1 + int(memCycles)%12_000
			cfg.Adaptive.IntervalCycles = 16 + int64(interval)%4000
			if maxCycles > 0 {
				cfg.MaxCycles = 1 + int64(maxCycles)%(40*tc.budget)
			}
			cfg.IQ.Collapsible = collapsible
		}
		got := checkSkipCase(t, tc)
		used := runSkipCase(t, nil, seed, false, false).core
		if used.robCount == 0 {
			t.Fatal("the seed machine left no work in flight")
		}
		again := runSkipCase(t, used, tc, false, true)
		for i := range got.stats {
			if !reflect.DeepEqual(again.stats[i], got.stats[i]) {
				for _, d := range statsDiff(again.stats[i], got.stats[i]) {
					t.Errorf("%s: segment %d, reset core vs new core: %s", tc.name, i, d)
				}
			}
		}
		if again.probe.n != got.probe.n || again.probe.h != got.probe.h {
			t.Errorf("%s: probe traces differ: reset core %d samples (hash %x), new core %d (hash %x)",
				tc.name, again.probe.n, again.probe.h, got.probe.n, got.probe.h)
		}
	})
}
