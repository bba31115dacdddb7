package adaptive

import "testing"

func drain(c *Controller, cycles int64, stalled bool, issues, young int) (int, bool) {
	var limit int
	var changed bool
	for i := int64(0); i < cycles; i++ {
		for j := 0; j < issues; j++ {
			c.OnIssue(j < young)
		}
		l, ch := c.OnCycle(1, stalled)
		limit = l
		changed = changed || ch
	}
	return limit, changed
}

func TestStartsFullyEnabled(t *testing.T) {
	c := New(DefaultConfig(), 10, 8)
	if c.EnabledBanks() != 10 || c.Limit() != 80 {
		t.Fatalf("start = %d banks limit %d, want 10/80", c.EnabledBanks(), c.Limit())
	}
}

func TestShrinksWhenYoungIdle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeIntervals = 0 // isolate shrink behaviour
	c := New(cfg, 10, 8)
	// Zero young contribution for several intervals: must shrink each time.
	limit, changed := drain(c, cfg.IntervalCycles, false, 4, 0)
	if !changed || limit != 72 {
		t.Fatalf("after one idle interval: limit %d changed %v, want 72 true", limit, changed)
	}
	for i := 0; i < 20; i++ {
		drain(c, cfg.IntervalCycles, false, 4, 0)
	}
	if c.EnabledBanks() != cfg.MinBanks {
		t.Errorf("floor = %d banks, want MinBanks %d", c.EnabledBanks(), cfg.MinBanks)
	}
}

func TestGrowsOnStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeIntervals = 0
	c := New(cfg, 10, 8)
	for i := 0; i < 5; i++ {
		drain(c, cfg.IntervalCycles, false, 4, 0)
	}
	shrunk := c.EnabledBanks()
	drain(c, cfg.IntervalCycles, true, 4, 0) // stalling every cycle
	if c.EnabledBanks() != shrunk+1 {
		t.Errorf("banks = %d after stalls, want %d", c.EnabledBanks(), shrunk+1)
	}
}

func TestProbePeriodicallyGrows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeIntervals = 2
	c := New(cfg, 10, 8)
	// Shrink once, then hold young share high enough to avoid shrinking;
	// every second interval the probe must re-enable a bank.
	drain(c, cfg.IntervalCycles, false, 4, 0)
	start := c.EnabledBanks()
	drain(c, cfg.IntervalCycles, false, 4, 2) // interval 2: probe fires
	if c.EnabledBanks() != start+1 {
		t.Errorf("probe did not grow: %d -> %d", start, c.EnabledBanks())
	}
}

func TestNeverExceedsBounds(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg, 10, 8)
	for i := 0; i < 50; i++ {
		drain(c, cfg.IntervalCycles, i%2 == 0, 8, 8)
	}
	if c.EnabledBanks() > 10 || c.EnabledBanks() < cfg.MinBanks {
		t.Errorf("banks %d out of [min,total]", c.EnabledBanks())
	}
}

func TestHighYoungShareHolds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeIntervals = 0
	c := New(cfg, 10, 8)
	// All issues young: no shrink.
	_, changed := drain(c, cfg.IntervalCycles, false, 4, 4)
	if changed {
		t.Error("controller resized despite fully-young issue mix")
	}
}

// TestBulkCyclesMatchSingleCycles accounts idle stretches in one OnCycle
// call and in one call per cycle: the controllers must decide alike, and
// CyclesToDecision must count down to the deciding cycle.
func TestBulkCyclesMatchSingleCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntervalCycles = 100
	bulk, single := New(cfg, 10, 8), New(cfg, 10, 8)
	for i := 0; i < 40; i++ {
		stalled := i%3 == 0
		for _, c := range []*Controller{bulk, single} {
			c.OnIssue(i%2 == 0)
			c.OnIssue(false)
		}
		n := bulk.CyclesToDecision()
		if got := single.CyclesToDecision(); got != n {
			t.Fatalf("interval %d: CyclesToDecision %d and %d", i, n, got)
		}
		if n != cfg.IntervalCycles {
			t.Fatalf("interval %d: %d cycles to decision at its start, want %d", i, n, cfg.IntervalCycles)
		}
		// Everything but the deciding cycle in one call, then the decision.
		if _, changed := bulk.OnCycle(n-1, stalled); changed {
			t.Fatalf("interval %d: decided before the deciding cycle", i)
		}
		if got := bulk.CyclesToDecision(); got != 1 {
			t.Fatalf("interval %d: %d cycles to decision before the deciding one, want 1", i, got)
		}
		lb, cb := bulk.OnCycle(1, stalled)
		ls, cs := drain(single, n, stalled, 0, 0)
		if lb != ls || cb != cs {
			t.Fatalf("interval %d: bulk (%d, %v), single (%d, %v)", i, lb, cb, ls, cs)
		}
	}
	if bulk.Resizes() != single.Resizes() || bulk.Resizes() == 0 {
		t.Fatalf("resizes: bulk %d, single %d; want equal and non-zero", bulk.Resizes(), single.Resizes())
	}
}
