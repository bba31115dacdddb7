// Differential harness: the production scheduler (ready-list select,
// unresolved-store cursor, same-address forwarding chains) must produce
// bit-identical Stats to the scan-based reference scheduler below on
// every control mode and benchmark. Any divergence — one reordered pick,
// one mis-forwarded load, one load issued past an unresolved store —
// shifts cycle counts or power populations and fails the
// reflect.DeepEqual. Both runs use the production wakeup, which a
// per-cycle probe checks against register readiness.
package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/workload"
)

// runScan is RunSegment's cycle loop over stepScan, without a segment
// target, cancellation or idle-cycle skipping.
func (c *Core) runScan() Stats {
	for !c.done() {
		c.stepScan()
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			break
		}
	}
	return c.snapshot()
}

// stepScan is step with issueScan in place of issue. It is a copy of
// step: if step gains or reorders a stage and this copy does not follow,
// the differential fails.
func (c *Core) stepScan() {
	c.cycle++
	c.q.BeginCycle(1)
	c.commit()
	c.writeback()
	c.issueScan()
	c.dispatch()
	c.fetch()
	c.irf.Tick(1)
	c.frf.Tick(1)
	if c.ctrl != nil {
		limit, changed := c.ctrl.OnCycle(1, c.q.SizeLimitBlocked())
		if changed {
			c.q.SetSizeLimit(limit)
		}
	}
	if c.cfg.Probe != nil {
		c.cfg.Probe.Sample(c.cycle, c.probeSample())
	}
}

// issueScan is the reference select: it walks the whole window
// oldest-first filtering on readiness, checks every load against the
// store FIFO (no blocked-loads memo), and resolves and forwards stores by
// FIFO scans. The selection rules and their order are issue's.
func (c *Core) issueScan() {
	var unitsUsed [isa.NumClasses]int
	memPortsUsed := 0
	issued := 0
	c.picks = c.picks[:0]
	c.q.ForEachValid(func(pos int64, e *iq.Entry) bool {
		if !e.Ready() {
			return true
		}
		if issued >= c.cfg.IssueWidth {
			return false
		}
		idx := int(e.ID)
		u := &c.rob[idx]
		cl := u.class
		if u.isLoad || u.isStore {
			if memPortsUsed >= c.cfg.MemPorts {
				return true
			}
			if u.isLoad && !c.loadMayIssueScan(u) {
				return true
			}
			memPortsUsed++
		} else {
			if unitsUsed[cl] >= c.cfg.FU.unitsFor(cl) {
				return true
			}
			unitsUsed[cl]++
		}
		c.picks = append(c.picks, pick{pos, idx})
		issued++
		return true
	})
	for _, p := range c.picks {
		u := &c.rob[p.idx]
		if c.ctrl != nil {
			young := c.q.Tail()-p.pos <= int64(c.cfg.IQ.BankSize)
			c.ctrl.OnIssue(young)
		}
		c.q.Issue(p.pos)
		for i := 0; i < 2; i++ {
			if u.srcPhys[i] >= 0 {
				c.file(u.srcFP[i]).Read()
			}
		}
		u.state = uopIssued
		lat := c.execLatencyScan(u)
		if u.isStore {
			c.resolveStoreScan(u)
		}
		if lat > completionRing {
			lat = completionRing
			c.st.LatencyClamped++
		}
		due := (c.cycle + int64(lat)) % completionRing
		c.complete[due] = append(c.complete[due], p.idx)
	}
}

// loadMayIssueScan is loadMayIssue by a program-order scan of the store
// FIFO: every older store must have a resolved address.
func (c *Core) loadMayIssueScan(u *uop) bool {
	for i := c.storeHead; i < c.storeTail; i++ {
		s := c.storeAt(i)
		if s.seq >= u.d.Seq {
			break
		}
		if !s.resolved {
			return false
		}
	}
	return true
}

// resolveStoreScan is resolveStore finding the store by sequence number
// in the FIFO.
func (c *Core) resolveStoreScan(u *uop) {
	for i := c.storeHead; i < c.storeTail; i++ {
		if s := c.storeAt(i); s.seq == u.d.Seq {
			s.resolved = true
			c.unresolved--
			return
		}
	}
}

// execLatencyScan is execLatency forwarding a load from the youngest
// older same-address store found by a youngest-first FIFO scan.
func (c *Core) execLatencyScan(u *uop) int {
	if !u.isLoad {
		return c.execLatency(u)
	}
	for i := c.storeTail - 1; i >= c.storeHead; i-- {
		s := c.storeAt(i)
		if s.seq < u.d.Seq && s.addr == u.d.Addr {
			return c.dl1HitCycles
		}
	}
	return c.mem.LoadLatency(u.d.Addr)
}

// wakeupProbe checks the production wakeup every cycle: the issue queue's
// invariants hold, and each queued operand is Waiting exactly when its
// producer's physical register is not ready. The second check is ground
// truth, not another implementation: a consumer in the queue keeps its
// source register from being freed (the instruction that frees it is
// younger and commits later), and writeback marks a register ready in the
// same stage that broadcasts its tag. It records the first failure.
type wakeupProbe struct {
	c   *Core
	err error
}

func (p *wakeupProbe) Sample(cycle int64, _ ProbeSample) {
	if p.err != nil {
		return
	}
	if err := p.c.q.CheckInvariants(); err != nil {
		p.err = fmt.Errorf("cycle %d: issue queue: %w", cycle, err)
		return
	}
	p.c.q.ForEachValid(func(pos int64, e *iq.Entry) bool {
		u := &p.c.rob[e.ID]
		for i := 0; i < iq.OperandsPerEntry; i++ {
			phys := u.srcPhys[i]
			notReady := phys >= 0 && !p.c.file(u.srcFP[i]).IsReady(phys)
			if e.Waiting[i] != notReady {
				p.err = fmt.Errorf("cycle %d: queue position %d operand %d (phys %d): waiting=%v, producer not ready=%v",
					cycle, pos, i, phys, e.Waiting[i], notReady)
				return false
			}
		}
		return true
	})
}

// diffBudget is large enough to fill the machine, wrap every ring, and
// exercise hint regions, mispredicts and cache misses many times over.
const diffBudget = 30_000

// diffMode is one of the paper's issue-queue control configurations.
type diffMode struct {
	name        string
	instrument  bool
	instrumentO core.Options
	control     ControlMode
}

func diffModes() []diffMode {
	return []diffMode{
		{name: "baseline", control: ControlNone},
		{name: "noop", instrument: true, instrumentO: core.Options{Mode: core.ModeNOOP}, control: ControlHints},
		{name: "tag", instrument: true, instrumentO: core.Options{Mode: core.ModeTag}, control: ControlHints},
		{name: "abella", control: ControlAdaptive},
	}
}

// runScheduler builds and optionally instruments the benchmark and runs
// it on cfg under the production or reference scheduler, with the
// wakeup probe attached.
func runScheduler(t *testing.T, bench string, m diffMode, cfg Config, reference bool) Stats {
	t.Helper()
	b, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	p := b.Build(42)
	if m.instrument {
		if _, err := core.Instrument(p, m.instrumentO); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Control = m.control
	cfg.MaxInsts = diffBudget
	cfg.MaxCycles = diffBudget * 20
	probe := &wakeupProbe{}
	cfg.Probe = probe
	e, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	c, err := New(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	probe.c = c
	var st Stats
	if reference {
		st = c.runScan()
	} else {
		st = c.Run()
	}
	if probe.err != nil {
		t.Fatalf("wakeup check (reference=%v): %v", reference, probe.err)
	}
	return st
}

// statsDiff names the fields in which two Stats differ (the test failure
// would otherwise be an unreadable struct dump).
func statsDiff(a, b Stats) []string {
	var diffs []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(fa, fb) {
			diffs = append(diffs, fmt.Sprintf("%s: fast=%+v ref=%+v",
				va.Type().Field(i).Name, fa, fb))
		}
	}
	return diffs
}

// TestFastSchedulerMatchesReference requires every control mode ×
// benchmark to have bit-identical Stats — including the IQ wakeup/power
// populations and both register files' counters — under the production
// and reference schedulers.
func TestFastSchedulerMatchesReference(t *testing.T) {
	benches := []string{"gzip", "perlbmk", "twolf"}
	for _, m := range diffModes() {
		for _, bench := range benches {
			m, bench := m, bench
			t.Run(m.name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				fast := runScheduler(t, bench, m, DefaultConfig(), false)
				ref := runScheduler(t, bench, m, DefaultConfig(), true)
				if !reflect.DeepEqual(fast, ref) {
					for _, d := range statsDiff(fast, ref) {
						t.Errorf("stats diverge: %s", d)
					}
				}
			})
		}
	}
}

// TestFastSchedulerMatchesReferenceCollapsible covers the collapsible-
// queue ablation, whose larger ring exercises the wakeup index's ready
// bitset and slot-reuse validation across a wrapped, holey window.
func TestFastSchedulerMatchesReferenceCollapsible(t *testing.T) {
	m := diffMode{name: "baseline", control: ControlNone}
	cfg := DefaultConfig()
	cfg.IQ.Collapsible = true
	for _, bench := range []string{"gzip"} {
		fast := runScheduler(t, bench, m, cfg, false)
		ref := runScheduler(t, bench, m, cfg, true)
		if !reflect.DeepEqual(fast, ref) {
			for _, d := range statsDiff(fast, ref) {
				t.Errorf("%s collapsible: stats diverge: %s", bench, d)
			}
		}
	}
}
