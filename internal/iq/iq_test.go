package iq

import (
	"math/rand"
	"testing"
)

func noOps() [2]int       { return [2]int{-1, -1} }
func notWaiting() [2]bool { return [2]bool{false, false} }
func mustDispatch(t *testing.T, q *Queue, id int64, tags [2]int, waiting [2]bool) int64 {
	t.Helper()
	pos, ok := q.Dispatch(id, tags, waiting)
	if !ok {
		t.Fatalf("dispatch %d failed unexpectedly", id)
	}
	return pos
}

// TestFigure1Wakeups reproduces the paper's figure 1 exactly: the 6-inst
// basic block causes 18 wakeups in the unconstrained queue and 10 when
// max_new_range is 2, completing in the same number of cycles.
func TestFigure1Wakeups(t *testing.T) {
	const tagA, tagB, tagC, tagD = 1, 2, 3, 4

	runBaseline := func() *Queue {
		q := MustNew(Config{Entries: 80, BankSize: 8})
		// Cycle 0: dispatch all six.
		q.BeginCycle(1)
		pa := mustDispatch(t, q, 0, noOps(), notWaiting())
		pb := mustDispatch(t, q, 1, noOps(), notWaiting())
		pc := mustDispatch(t, q, 2, [2]int{tagA, -1}, [2]bool{true, false})
		pd := mustDispatch(t, q, 3, [2]int{tagB, -1}, [2]bool{true, false})
		pe := mustDispatch(t, q, 4, [2]int{tagC, tagD}, [2]bool{true, true})
		pf := mustDispatch(t, q, 5, [2]int{tagB, tagD}, [2]bool{true, true})
		// Cycle 1: a, b issue.
		q.BeginCycle(1)
		q.Issue(pa)
		q.Issue(pb)
		// Cycle 2: a, b write back and broadcast; c, d issue.
		q.BeginCycle(1)
		q.Broadcast(tagA)
		q.Broadcast(tagB)
		q.Issue(pc)
		q.Issue(pd)
		// Cycle 3: c, d broadcast; e, f issue.
		q.BeginCycle(1)
		q.Broadcast(tagC)
		q.Broadcast(tagD)
		q.Issue(pe)
		q.Issue(pf)
		return q
	}

	q := runBaseline()
	if q.Stats.GatedWakeups != 18 {
		t.Errorf("baseline wakeups = %d, want 18 (paper figure 1(c))", q.Stats.GatedWakeups)
	}

	// Limited to 2 entries (figure 1(d)).
	q = MustNew(Config{Entries: 80, BankSize: 8})
	q.BeginCycle(1)
	q.SetHint(2)
	pa := mustDispatch(t, q, 0, noOps(), notWaiting())
	pb := mustDispatch(t, q, 1, noOps(), notWaiting())
	if q.CanDispatch() {
		t.Fatal("hint=2 must block the third dispatch")
	}
	if !q.HintBlocked() {
		t.Fatal("block must be attributed to the hint")
	}
	// Cycle 1: a, b issue; c, d dispatch.
	q.BeginCycle(1)
	q.Issue(pa)
	q.Issue(pb)
	pc := mustDispatch(t, q, 2, [2]int{tagA, -1}, [2]bool{true, false})
	pd := mustDispatch(t, q, 3, [2]int{tagB, -1}, [2]bool{true, false})
	// Cycle 2: a, b broadcast (2 waiting ops each); c, d issue; e, f dispatch.
	q.BeginCycle(1)
	q.Broadcast(tagA)
	q.Broadcast(tagB)
	q.Issue(pc)
	q.Issue(pd)
	pe := mustDispatch(t, q, 4, [2]int{tagC, tagD}, [2]bool{true, true})
	// f's first operand (from b) already broadcast: dispatches ready.
	pf := mustDispatch(t, q, 5, [2]int{tagB, tagD}, [2]bool{false, true})
	// Cycle 3: c, d broadcast (3 waiting ops); e, f issue.
	q.BeginCycle(1)
	q.Broadcast(tagC)
	q.Broadcast(tagD)
	q.Issue(pe)
	q.Issue(pf)

	if q.Stats.GatedWakeups != 10 {
		t.Errorf("limited wakeups = %d, want 10 (paper figure 1(d))", q.Stats.GatedWakeups)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFigure2NewHeadAdvance reproduces figure 2: with max_new_range = 4
// and entries a,_,_,d resident in the region, issuing a slides new_head to
// d and exactly three more instructions may dispatch.
func TestFigure2NewHeadAdvance(t *testing.T) {
	q := MustNew(Config{Entries: 80, BankSize: 8})
	q.SetHint(4)
	pa := mustDispatch(t, q, 0, noOps(), notWaiting())
	pb := mustDispatch(t, q, 1, noOps(), notWaiting())
	pc := mustDispatch(t, q, 2, noOps(), notWaiting())
	pd := mustDispatch(t, q, 3, noOps(), notWaiting())
	// Issue b and c leaving holes: region = a,_,_,d with 2 valid entries.
	q.Issue(pb)
	q.Issue(pc)
	if q.NewCount() != 2 {
		t.Fatalf("newCount = %d, want 2", q.NewCount())
	}
	// Two more may enter (4 limit - 2 valid).
	mustDispatch(t, q, 4, noOps(), notWaiting())
	mustDispatch(t, q, 5, noOps(), notWaiting())
	if q.CanDispatch() {
		t.Fatal("region at limit must block dispatch")
	}
	// Issue a: new_head slides past the holes to d; one slot frees.
	q.Issue(pa)
	if q.NewHead() != pd {
		t.Fatalf("newHead = %d, want %d (slid to d)", q.NewHead(), pd)
	}
	if !q.CanDispatch() {
		t.Fatal("issuing a must free one region slot")
	}
	mustDispatch(t, q, 6, noOps(), notWaiting())
	if q.CanDispatch() {
		t.Fatal("region full again")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHintSnapClosesRegion(t *testing.T) {
	q := MustNew(Config{Entries: 16, BankSize: 8})
	q.SetHint(4)
	for i := int64(0); i < 4; i++ {
		mustDispatch(t, q, i, noOps(), notWaiting())
	}
	if q.CanDispatch() {
		t.Fatal("old region full")
	}
	// A new hint opens a fresh region: the 4 old entries stop counting.
	q.SetHint(2)
	if q.NewCount() != 0 {
		t.Fatalf("newCount after hint = %d, want 0", q.NewCount())
	}
	mustDispatch(t, q, 4, noOps(), notWaiting())
	mustDispatch(t, q, 5, noOps(), notWaiting())
	if q.CanDispatch() {
		t.Fatal("new region limit is 2")
	}
	if q.Count() != 6 {
		t.Errorf("count = %d, want 6", q.Count())
	}
}

func TestPhysicalCapacityBlocks(t *testing.T) {
	q := MustNew(Config{Entries: 8, BankSize: 4})
	for i := int64(0); i < 8; i++ {
		mustDispatch(t, q, i, noOps(), notWaiting())
	}
	if q.CanDispatch() {
		t.Fatal("physically full queue accepted dispatch")
	}
	if q.HintBlocked() {
		t.Fatal("block is physical, not hint")
	}
	// Non-collapsible: issuing a middle entry leaves a hole that does NOT
	// free a slot (span still 8).
	q.Issue(3)
	if q.CanDispatch() {
		t.Fatal("hole must not free a tail slot in a non-collapsible queue")
	}
	// Issuing the head frees span.
	q.Issue(0)
	if !q.CanDispatch() {
		t.Fatal("head issue must free span")
	}
}

func TestWraparound(t *testing.T) {
	q := MustNew(Config{Entries: 8, BankSize: 4})
	// Cycle entries through several wraps.
	var positions []int64
	for round := 0; round < 5; round++ {
		for i := 0; i < 8 && q.CanDispatch(); i++ {
			p, _ := q.Dispatch(int64(round*8+i), noOps(), notWaiting())
			positions = append(positions, p)
		}
		// Issue all current entries oldest-first.
		var toIssue []int64
		q.ForEachValid(func(pos int64, e *Entry) bool {
			toIssue = append(toIssue, pos)
			return true
		})
		for _, p := range toIssue {
			q.Issue(p)
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if q.Count() != 0 {
		t.Errorf("count = %d, want 0", q.Count())
	}
	if q.Tail() <= 8 {
		t.Errorf("tail = %d: queue never wrapped", q.Tail())
	}
}

// TestIssueOutsideWindowPanics: a position a full ring past a valid
// entry names the same slot, and must not issue that entry.
func TestIssueOutsideWindowPanics(t *testing.T) {
	q := MustNew(Config{Entries: 8, BankSize: 4})
	pos := mustDispatch(t, q, 1, noOps(), notWaiting())
	defer func() {
		if recover() == nil {
			t.Error("issuing a position outside [head, tail) did not panic")
		}
		if q.Count() != 1 {
			t.Errorf("count = %d after the refused issue, want 1", q.Count())
		}
	}()
	q.Issue(pos + 8)
}

func TestBankGating(t *testing.T) {
	q := MustNew(Config{Entries: 16, BankSize: 4})
	if q.BanksOn() != 0 {
		t.Fatalf("empty queue has %d banks on", q.BanksOn())
	}
	p0 := mustDispatch(t, q, 0, noOps(), notWaiting())
	if q.BanksOn() != 1 {
		t.Errorf("one entry -> 1 bank on, got %d", q.BanksOn())
	}
	for i := int64(1); i < 5; i++ {
		mustDispatch(t, q, i, noOps(), notWaiting())
	}
	if q.BanksOn() != 2 {
		t.Errorf("5 entries -> 2 banks on, got %d", q.BanksOn())
	}
	q.Issue(p0)
	// Bank 0 still has entries 1..3.
	if q.BanksOn() != 2 {
		t.Errorf("after head issue banks on = %d, want 2", q.BanksOn())
	}
}

func TestBroadcastAccountingSchemes(t *testing.T) {
	q := MustNew(Config{Entries: 80, BankSize: 8})
	mustDispatch(t, q, 0, [2]int{7, 8}, [2]bool{true, true})
	mustDispatch(t, q, 1, [2]int{7, -1}, [2]bool{true, false})
	mustDispatch(t, q, 2, noOps(), notWaiting())
	q.BeginCycle(1)
	woken := q.Broadcast(7)
	if woken != 2 {
		t.Errorf("woken = %d, want 2", woken)
	}
	if q.Stats.GatedWakeups != 3 {
		t.Errorf("gated = %d, want 3 (waiting ops at cycle start)", q.Stats.GatedWakeups)
	}
	if q.Stats.NonEmptyWakeups != 6 {
		t.Errorf("nonEmpty = %d, want 2*3 valid entries", q.Stats.NonEmptyWakeups)
	}
	if q.Stats.UngatedWakeups != 160 {
		t.Errorf("ungated = %d, want 2*80", q.Stats.UngatedWakeups)
	}
	if q.WaitingOperands() != 1 {
		t.Errorf("waiting after broadcast = %d, want 1", q.WaitingOperands())
	}
}

func TestHintClamping(t *testing.T) {
	q := MustNew(Config{Entries: 16, BankSize: 8})
	q.SetHint(-3)
	if q.MaxNewRange() != 1 {
		t.Errorf("clamped low = %d, want 1", q.MaxNewRange())
	}
	q.SetHint(500)
	if q.MaxNewRange() != 16 {
		t.Errorf("clamped high = %d, want 16", q.MaxNewRange())
	}
	q.ClearHint()
	if q.MaxNewRange() != 0 {
		t.Errorf("cleared = %d, want 0", q.MaxNewRange())
	}
}

// TestRandomOperationsInvariant drives the queue with a random but legal
// operation mix and checks the full invariant set after every step.
func TestRandomOperationsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := MustNew(Config{Entries: 24, BankSize: 8})
	live := map[int64]bool{}
	var id int64
	for step := 0; step < 5000; step++ {
		switch rng.Intn(10) {
		case 0:
			q.SetHint(1 + rng.Intn(30))
		case 1, 2, 3, 4:
			if q.CanDispatch() {
				tags := [2]int{rng.Intn(8) - 1, rng.Intn(8) - 1}
				waiting := [2]bool{tags[0] >= 0 && rng.Intn(2) == 0, tags[1] >= 0 && rng.Intn(2) == 0}
				pos, ok := q.Dispatch(id, tags, waiting)
				if !ok {
					t.Fatalf("step %d: CanDispatch lied", step)
				}
				live[pos] = true
				id++
			}
		case 5, 6, 7:
			// Issue a random live entry.
			for pos := range live {
				q.Issue(pos)
				delete(live, pos)
				break
			}
		case 8:
			q.BeginCycle(1)
			q.Broadcast(rng.Intn(8))
		case 9:
			q.BeginCycle(1)
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := New(Config{Entries: 10, BankSize: 4}); err == nil {
		t.Error("accepted entries not multiple of bank size")
	}
	if _, err := New(Config{Entries: 0, BankSize: 4}); err == nil {
		t.Error("accepted zero entries")
	}
}
