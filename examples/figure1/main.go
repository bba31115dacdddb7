// Figure 1: reproduces the paper's motivating example exactly. The
// six-instruction basic block
//
//	a: add r1, 1, r1    b: add r2, 2, r2    c: mul r1, 5, r3
//	d: mul r2, 5, r4    e: add r3, r4, r5   f: add r2, r4, r6
//
// executes in the same number of cycles whether the issue queue is
// unconstrained (18 operand wakeups) or limited to 2 entries (10
// wakeups) — a 44% wakeup saving for free. This example drives the
// banked issue queue structure directly, cycle by cycle, mirroring the
// paper's figures 1(c) and 1(d).
package main

import (
	"fmt"

	"repro/internal/iq"
)

const (
	tagA = 1
	tagB = 2
	tagC = 3
	tagD = 4
)

func main() {
	fmt.Println("Paper figure 1: issue-queue wakeups, baseline vs limited")
	fmt.Println()

	baseline := runBaseline()
	fmt.Printf("baseline  (80 entries): %2d wakeups over 4 cycles\n", baseline.Stats.GatedWakeups)

	limited := runLimited()
	fmt.Printf("limited   (2 entries):  %2d wakeups over 4 cycles\n", limited.Stats.GatedWakeups)

	saving := 100 * (1 - float64(limited.Stats.GatedWakeups)/float64(baseline.Stats.GatedWakeups))
	fmt.Printf("wakeup saving:          %2.0f%% with no slowdown (paper: 44%%)\n", saving)
}

// runBaseline is figure 1(c): all six instructions dispatch on cycle 0.
func runBaseline() *iq.Queue {
	q := iq.MustNew(iq.DefaultConfig())
	// Cycle 0: dispatch a..f.
	q.BeginCycle(1)
	pa, _ := q.Dispatch(0, [2]int{-1, -1}, [2]bool{false, false})
	pb, _ := q.Dispatch(1, [2]int{-1, -1}, [2]bool{false, false})
	pc, _ := q.Dispatch(2, [2]int{tagA, -1}, [2]bool{true, false})
	pd, _ := q.Dispatch(3, [2]int{tagB, -1}, [2]bool{true, false})
	pe, _ := q.Dispatch(4, [2]int{tagC, tagD}, [2]bool{true, true})
	pf, _ := q.Dispatch(5, [2]int{tagB, tagD}, [2]bool{true, true})
	// Cycle 1: a, b issue.
	q.BeginCycle(1)
	q.Issue(pa)
	q.Issue(pb)
	// Cycle 2: a, b write back (6 wakeups each); c, d issue.
	q.BeginCycle(1)
	q.Broadcast(tagA)
	q.Broadcast(tagB)
	q.Issue(pc)
	q.Issue(pd)
	// Cycle 3: c, d write back (3 wakeups each); e, f issue.
	q.BeginCycle(1)
	q.Broadcast(tagC)
	q.Broadcast(tagD)
	q.Issue(pe)
	q.Issue(pf)
	return q
}

// runLimited is figure 1(d): max_new_range = 2 staggers dispatch without
// delaying any issue.
func runLimited() *iq.Queue {
	q := iq.MustNew(iq.DefaultConfig())
	// Cycle 0: hint 2; only a and b fit.
	q.BeginCycle(1)
	q.SetHint(2)
	pa, _ := q.Dispatch(0, [2]int{-1, -1}, [2]bool{false, false})
	pb, _ := q.Dispatch(1, [2]int{-1, -1}, [2]bool{false, false})
	// Cycle 1: a, b issue; c, d dispatch into the freed region.
	q.BeginCycle(1)
	q.Issue(pa)
	q.Issue(pb)
	pc, _ := q.Dispatch(2, [2]int{tagA, -1}, [2]bool{true, false})
	pd, _ := q.Dispatch(3, [2]int{tagB, -1}, [2]bool{true, false})
	// Cycle 2: a, b write back (2 wakeups each); c, d issue; e, f enter
	// (f's first operand already arrived with b's broadcast).
	q.BeginCycle(1)
	q.Broadcast(tagA)
	q.Broadcast(tagB)
	q.Issue(pc)
	q.Issue(pd)
	pe, _ := q.Dispatch(4, [2]int{tagC, tagD}, [2]bool{true, true})
	pf, _ := q.Dispatch(5, [2]int{tagB, tagD}, [2]bool{false, true})
	// Cycle 3: c, d write back (3 wakeups each); e, f issue.
	q.BeginCycle(1)
	q.Broadcast(tagC)
	q.Broadcast(tagD)
	q.Issue(pe)
	q.Issue(pf)
	return q
}
