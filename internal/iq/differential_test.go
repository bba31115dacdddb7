// Fuzz-style differential workout: a mirrored pair of queues — one woken
// through Broadcast's indexed wakeup, one only through broadcastScan, the
// reference full-window scan below — receives an identical random
// operation stream. After every operation both must agree with each other
// and with a from-scratch scan of their own windows (readiness, banks,
// waiting population, invariants).
package iq

import (
	"math/rand"
	"reflect"
	"testing"
)

// broadcastScan is the reference wakeup: Broadcast with the original
// O(window) CAM-style scan in place of the tag index. It charges the same
// energy accounting and maintains the same derived state (ready list,
// index hygiene), so a queue can be woken through it alone.
func (q *Queue) broadcastScan(tag int) int {
	q.Stats.Broadcasts++
	q.Stats.GatedWakeups += int64(q.latchedWaiting)
	q.Stats.NonEmptyWakeups += int64(OperandsPerEntry * q.latchedCount)
	q.Stats.UngatedWakeups += int64(OperandsPerEntry * q.cfg.Entries)
	woken := 0
	for pos := q.head; pos < q.tail; pos++ {
		s := int(pos % int64(q.ringSize))
		e := &q.ring[s]
		if !e.Valid {
			continue
		}
		for i := 0; i < OperandsPerEntry; i++ {
			if e.Waiting[i] && e.Tag[i] == tag {
				e.Waiting[i] = false
				q.waiting--
				woken++
			}
		}
		if e.Ready() {
			w := s >> 6
			if q.ready[w]&(1<<uint(s&63)) == 0 {
				q.markReady(s)
			}
		}
	}
	// The tag's subscribers (if any) all just woke or were already stale.
	if tag >= 0 && tag < len(q.waiters) {
		q.waiters[tag] = q.waiters[tag][:0]
	}
	q.Stats.Woken += int64(woken)
	return woken
}

// readySnapshot collects ForEachReady's visit order.
func readySnapshot(q *Queue) []int64 {
	var out []int64
	q.ForEachReady(func(pos int64, e *Entry) bool {
		out = append(out, pos)
		return true
	})
	return out
}

// readyScan recomputes the ready set the slow way: valid entries,
// oldest-first, whose operands have all arrived.
func readyScan(q *Queue) []int64 {
	var out []int64
	q.ForEachValid(func(pos int64, e *Entry) bool {
		if e.Ready() {
			out = append(out, pos)
		}
		return true
	})
	return out
}

// banksOnScan recomputes BanksOn from the valid entries' positions: the
// bank of position p is (p mod ringSize) / BankSize.
func banksOnScan(q *Queue) int {
	banks := map[int]bool{}
	q.ForEachValid(func(pos int64, e *Entry) bool {
		banks[int(pos%int64(q.ringSize))/q.cfg.BankSize] = true
		return true
	})
	return len(banks)
}

func compareQueues(t *testing.T, step int, fast, ref *Queue) {
	t.Helper()
	if err := fast.CheckInvariants(); err != nil {
		t.Fatalf("step %d: fast invariants: %v", step, err)
	}
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("step %d: reference invariants: %v", step, err)
	}
	if fast.Count() != ref.Count() || fast.WaitingOperands() != ref.WaitingOperands() ||
		fast.Span() != ref.Span() || fast.NewCount() != ref.NewCount() {
		t.Fatalf("step %d: populations diverge: fast count=%d waiting=%d span=%d new=%d, ref count=%d waiting=%d span=%d new=%d",
			step, fast.Count(), fast.WaitingOperands(), fast.Span(), fast.NewCount(),
			ref.Count(), ref.WaitingOperands(), ref.Span(), ref.NewCount())
	}
	if fast.BanksOn() != ref.BanksOn() || fast.BanksOn() != banksOnScan(fast) {
		t.Fatalf("step %d: banksOn diverges: fast=%d ref=%d scan=%d",
			step, fast.BanksOn(), ref.BanksOn(), banksOnScan(fast))
	}
	fastReady, scanReady := readySnapshot(fast), readyScan(fast)
	if !reflect.DeepEqual(fastReady, scanReady) {
		t.Fatalf("step %d: fast ready list %v disagrees with its own scan %v", step, fastReady, scanReady)
	}
	if refReady := readyScan(ref); !reflect.DeepEqual(fastReady, refReady) {
		t.Fatalf("step %d: ready sets diverge: fast=%v ref=%v", step, fastReady, refReady)
	}
}

// TestRandomizedIndexMatchesScan drives the mirrored pair through ~2000
// random dispatch/issue/broadcast/hint/resize operations per seed and
// geometry, including issuing entries that still wait (the unsubscribe
// path) and rebroadcasting dead tags (the stale-subscriber path).
func TestRandomizedIndexMatchesScan(t *testing.T) {
	geometries := []Config{
		{Entries: 80, BankSize: 8},
		{Entries: 16, BankSize: 4},
		{Entries: 24, BankSize: 8, Collapsible: true},
	}
	const tagSpace = 24
	for _, seed := range []int64{1, 7, 42, 20260730} {
		for _, cfg := range geometries {
			fast := MustNew(cfg)
			ref := MustNew(cfg)
			rng := rand.New(rand.NewSource(seed))
			randTag := func() int {
				if rng.Intn(8) == 0 {
					return -1 // absent operand
				}
				return rng.Intn(tagSpace)
			}
			var id int64
			for step := 0; step < 2000; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // dispatch
					tags := [OperandsPerEntry]int{randTag(), randTag()}
					var waiting [OperandsPerEntry]bool
					for i, tg := range tags {
						waiting[i] = tg >= 0 && rng.Intn(2) == 0
					}
					pf, okf := fast.Dispatch(id, tags, waiting)
					pr, okr := ref.Dispatch(id, tags, waiting)
					if okf != okr || pf != pr {
						t.Fatalf("step %d: dispatch diverges: fast=(%d,%v) ref=(%d,%v)", step, pf, okf, pr, okr)
					}
					id++
				case op < 7: // broadcast (sometimes a tag nobody waits on)
					// after n unchanged cycles, sampled in one call and in n
					tag := rng.Intn(tagSpace + 4)
					n := int64(1 + rng.Intn(3))
					fast.BeginCycle(n)
					for i := int64(0); i < n; i++ {
						ref.BeginCycle(1)
					}
					if wf, wr := fast.Broadcast(tag), ref.broadcastScan(tag); wf != wr {
						t.Fatalf("step %d: broadcast(%d) woke %d fast vs %d ref", step, tag, wf, wr)
					}
				case op < 9: // issue a ready entry, occasionally a waiting one
					pool := readyScan(fast)
					if rng.Intn(10) == 0 || len(pool) == 0 {
						pool = pool[:0]
						fast.ForEachValid(func(pos int64, e *Entry) bool {
							pool = append(pool, pos)
							return true
						})
					}
					if len(pool) == 0 {
						continue
					}
					pos := pool[rng.Intn(len(pool))]
					fast.Issue(pos)
					ref.Issue(pos)
				default: // control operations
					switch rng.Intn(3) {
					case 0:
						n := 1 + rng.Intn(cfg.Entries)
						fast.SetHint(n)
						ref.SetHint(n)
					case 1:
						fast.ClearHint()
						ref.ClearHint()
					case 2:
						n := rng.Intn(cfg.Entries + 1)
						fast.SetSizeLimit(n)
						ref.SetSizeLimit(n)
					}
				}
				compareQueues(t, step, fast, ref)
			}
			if !reflect.DeepEqual(fast.Stats, ref.Stats) {
				t.Fatalf("seed %d cfg %+v: stats diverge:\nfast: %+v\nref:  %+v", seed, cfg, fast.Stats, ref.Stats)
			}
		}
	}
}
