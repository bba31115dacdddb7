// Package iq implements the paper's issue queue (section 3.1): a
// non-collapsible, multi-banked circular buffer with a conventional head
// and tail pointer plus a second head pointer, new_head, that gives the
// compiler control over the youngest entries. A hint sets max_new_range —
// the maximum number of valid entries allowed between new_head and tail —
// and snaps new_head to the tail, so older entries belong to older program
// regions and do not count against the new region's budget.
//
// The queue also performs the power accounting of Folegnani & González
// style wakeup gating: on every result broadcast it records how many
// operand comparators would precharge under three schemes — ungated (every
// operand of every entry, 2×capacity), non-empty gating (every operand of
// every valid entry), and full gating (only waiting, i.e. non-ready,
// operands of valid entries). Broadcast energy is charged against the
// waiting-operand population at the start of the cycle, which reproduces
// the wakeup counts of the paper's figure 1 exactly (see the tests).
package iq

import (
	"fmt"
	"math/bits"
	"slices"
)

// OperandsPerEntry is the number of source-operand CAM fields per entry.
const OperandsPerEntry = 2

// Config sizes the queue. The paper uses 80 entries in banks of 8.
// Collapsible models a compacting queue for the ablation benchmarks: the
// paper's design is non-collapsible ("a compaction scheme would cause a
// significant amount of extra energy", section 3.1), so holes left by
// out-of-order issue waste physical slots; a collapsible queue is
// count-limited instead of span-limited, trading compaction energy (not
// modelled) for effective capacity.
type Config struct {
	Entries     int
	BankSize    int
	Collapsible bool
}

// DefaultConfig is the paper's issue queue: 80 entries, 10 banks of 8.
func DefaultConfig() Config { return Config{Entries: 80, BankSize: 8} }

// Entry is one issue-queue slot. Tags are physical register numbers; a
// negative tag marks an absent operand (an "empty" operand in the paper's
// figure 1, which is never woken).
type Entry struct {
	Valid   bool
	ID      int64 // client identifier (ROB index)
	Tag     [OperandsPerEntry]int
	Waiting [OperandsPerEntry]bool
}

// Ready reports whether all present operands have arrived.
func (e *Entry) Ready() bool {
	return !e.Waiting[0] && !e.Waiting[1]
}

// Stats accumulates the power-relevant event counts.
type Stats struct {
	Dispatches int64
	Issues     int64
	Broadcasts int64
	// Woken counts operands actually transitioned to ready by a broadcast.
	Woken int64
	// GatedWakeups: comparators precharged with full gating (waiting
	// operands of valid entries at cycle start) summed over broadcasts.
	GatedWakeups int64
	// NonEmptyWakeups: comparators precharged when only empty entries are
	// gated (2 × valid entries at cycle start) summed over broadcasts.
	NonEmptyWakeups int64
	// UngatedWakeups: comparators with no gating (2 × capacity per
	// broadcast).
	UngatedWakeups int64
	// HintSets counts max_new_range updates.
	HintSets int64
	// OccupancySum/SpanSum/BanksOnSum accumulate per-cycle samples via Tick.
	OccupancySum int64
	SpanSum      int64
	BanksOnSum   int64
	NewCountSum  int64
	Cycles       int64
}

// Queue is the issue queue. Positions are virtual (monotonically
// increasing); the physical slot of position p is p mod the ring size
// (Entries for the paper's non-collapsible queue; larger when modelling
// a collapsible one, where holes do not consume capacity). The hot paths
// never divide: each pointer carries its slot, stepped with a wrap, and
// other positions are found as an offset from head.
type Queue struct {
	cfg      Config
	banks    int
	ringSize int
	ring     []Entry
	head     int64 // oldest valid position, or == tail when empty
	newHead  int64 // oldest position of the current program region
	tail     int64 // next position to fill

	headSlot, newHeadSlot, tailSlot int // slots of head, newHead and tail

	count      int // valid entries
	newCount   int // valid entries in [newHead, tail)
	waiting    int // waiting operands over all valid entries
	bankCount  []int
	bankOfSlot []int // slot -> bank, precomputed (avoids div on hot paths)
	banksOn    int   // banks with bankCount > 0

	// Event-indexed wakeup: tag -> subscribers dispatched with a waiting
	// operand on that tag. Entries are validated lazily against posOf (a
	// slot may have been reissued), and a list is consumed whole on
	// broadcast — every live subscriber of a tag wakes on that tag. The
	// table is a dense slice (tags are small physical-register numbers,
	// plus an FP offset) grown on demand, so broadcast and dispatch avoid
	// map hashing on the hot path.
	waiters [][]waiter
	posOf   []int64 // virtual position of each slot's current occupant

	// Ready list: bit set = slot holds a valid entry whose operands have
	// all arrived. Iterated oldest-first by ForEachReady.
	ready      []uint64
	readyCount int

	maxNewRange int // 0 = unlimited (no compiler control)
	sizeLimit   int // 0 = unlimited; hardware-adaptive cap on valid entries

	// latched at BeginCycle for broadcast energy accounting
	latchedWaiting int
	latchedCount   int

	Stats Stats
}

// New builds a queue; Entries must be a positive multiple of BankSize.
func New(cfg Config) (*Queue, error) {
	q := new(Queue)
	if err := q.Reset(cfg); err != nil {
		return nil, err
	}
	return q, nil
}

// Reset empties the queue and configures it for cfg, leaving it as New
// builds it: no entries, no hint or size limit, zero Stats. It keeps the
// queue's storage wherever that is large enough — the ring, the ready
// bits and the wakeup waiter table with each tag's list — so a queue
// reset for every sampled window stops allocating after the first. A
// bad geometry is an error and leaves the queue as it was.
func (q *Queue) Reset(cfg Config) error {
	if cfg.Entries <= 0 || cfg.BankSize <= 0 || cfg.Entries%cfg.BankSize != 0 {
		return fmt.Errorf("iq: bad geometry entries=%d bankSize=%d", cfg.Entries, cfg.BankSize)
	}
	ringSize := cfg.Entries
	if cfg.Collapsible {
		// Headroom for holes: the span can reach the in-flight window
		// even though only Entries slots are logically occupied.
		ringSize = cfg.Entries * 4
	}
	*q = Queue{
		cfg:        cfg,
		banks:      cfg.Entries / cfg.BankSize,
		ringSize:   ringSize,
		ring:       zeroed(q.ring, ringSize),
		bankCount:  zeroed(q.bankCount, ringSize/cfg.BankSize),
		bankOfSlot: zeroed(q.bankOfSlot, ringSize),
		waiters:    q.waiters,
		posOf:      zeroed(q.posOf, ringSize),
		ready:      zeroed(q.ready, (ringSize+63)/64),
	}
	for s := range q.bankOfSlot {
		q.bankOfSlot[s] = s / cfg.BankSize
	}
	for tag := range q.waiters {
		q.waiters[tag] = q.waiters[tag][:0]
	}
	return nil
}

// zeroed returns s resized to n zero elements, in s's storage when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// waiter records one subscribed operand in the wakeup index. pos pins the
// subscription to a particular occupancy of slot: if the entry has issued
// and the slot been refilled, posOf no longer matches and the subscriber
// is stale. The slot is stored because a stale waiter's position may lie
// below head, where it cannot be found as an offset from head.
type waiter struct {
	pos  int64
	slot int32
	op   int32
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Queue {
	q, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Capacity returns the total entry count.
func (q *Queue) Capacity() int { return q.cfg.Entries }

// Banks returns the number of banks.
func (q *Queue) Banks() int { return q.banks }

// Count returns the number of valid entries.
func (q *Queue) Count() int { return q.count }

// NewCount returns the number of valid entries in the current region.
func (q *Queue) NewCount() int { return q.newCount }

// Span returns tail-head: the physical region the queue occupies (holes
// included), which bounds dispatch in a non-collapsible queue.
func (q *Queue) Span() int { return int(q.tail - q.head) }

// WaitingOperands returns the number of non-ready operands of valid
// entries right now.
func (q *Queue) WaitingOperands() int { return q.waiting }

// MaxNewRange returns the current compiler-imposed limit (0 = none).
func (q *Queue) MaxNewRange() int { return q.maxNewRange }

// BanksOn returns how many banks hold at least one valid entry; the rest
// are gated off this cycle. The count is maintained incrementally on
// dispatch and issue.
func (q *Queue) BanksOn() int { return q.banksOn }

// slotOf returns the slot of a position in [head, head+ringSize): every
// valid entry's, and tail's.
func (q *Queue) slotOf(pos int64) int {
	s := q.headSlot + int(pos-q.head)
	if s >= q.ringSize {
		s -= q.ringSize
	}
	return s
}

// nextSlot returns the slot after s, wrapping at the ring's end.
func (q *Queue) nextSlot(s int) int {
	s++
	if s == q.ringSize {
		return 0
	}
	return s
}

// SetHint installs a new max_new_range from a compiler hint: the current
// region closes (new_head snaps to tail) and subsequent dispatches are
// limited to entries valid entries in the new region. Values are clamped
// to [1, capacity].
func (q *Queue) SetHint(entries int) {
	if entries < 1 {
		entries = 1
	}
	if entries > q.cfg.Entries {
		entries = q.cfg.Entries
	}
	q.maxNewRange = entries
	q.newHead, q.newHeadSlot = q.tail, q.tailSlot
	q.newCount = 0
	q.Stats.HintSets++
}

// ClearHint removes compiler control (used by the uncontrolled baseline).
func (q *Queue) ClearHint() {
	q.maxNewRange = 0
	q.newHead, q.newHeadSlot = q.tail, q.tailSlot
	q.newCount = 0
}

// SetSizeLimit installs a hardware-adaptive cap on the number of valid
// entries (bank-granular resizing à la Abella & González / Buyuktosunoglu
// et al.). Zero removes the cap.
func (q *Queue) SetSizeLimit(entries int) {
	if entries < 0 {
		entries = 0
	}
	if entries > q.cfg.Entries {
		entries = q.cfg.Entries
	}
	q.sizeLimit = entries
}

// SizeLimitBlocked reports whether dispatch is blocked specifically by
// the adaptive size limit.
func (q *Queue) SizeLimitBlocked() bool {
	return !q.physicallyFull() && q.sizeLimit > 0 && q.count >= q.sizeLimit
}

// CanDispatch reports whether one more instruction may enter the queue:
// there must be physical capacity — span-limited for the paper's
// non-collapsible queue, count-limited for the collapsible ablation —
// the current region must have hint budget left, and any adaptive size
// limit must not be exceeded.
func (q *Queue) CanDispatch() bool {
	if q.physicallyFull() {
		return false
	}
	if q.maxNewRange > 0 && q.newCount >= q.maxNewRange {
		return false
	}
	if q.sizeLimit > 0 && q.count >= q.sizeLimit {
		return false
	}
	return true
}

// physicallyFull reports whether the queue itself (ignoring hints and
// adaptive limits) can accept no more instructions.
func (q *Queue) physicallyFull() bool {
	if q.cfg.Collapsible {
		return q.count >= q.cfg.Entries || q.Span() >= q.ringSize
	}
	return q.Span() >= q.cfg.Entries
}

// HintBlocked reports whether dispatch is blocked specifically by the
// compiler hint rather than by physical capacity.
func (q *Queue) HintBlocked() bool {
	return !q.physicallyFull() && q.maxNewRange > 0 && q.newCount >= q.maxNewRange
}

// Dispatch places an instruction at the tail. tags are the physical
// source registers (negative = no operand); waiting marks operands whose
// producers have not completed. Returns the entry's position, or ok=false
// if the queue cannot accept it.
func (q *Queue) Dispatch(id int64, tags [OperandsPerEntry]int, waiting [OperandsPerEntry]bool) (pos int64, ok bool) {
	if !q.CanDispatch() {
		return 0, false
	}
	pos = q.tail
	s := q.tailSlot
	e := &q.ring[s]
	*e = Entry{Valid: true, ID: id, Tag: tags, Waiting: waiting}
	q.posOf[s] = pos
	for i := 0; i < OperandsPerEntry; i++ {
		if tags[i] < 0 {
			e.Waiting[i] = false
		}
		if e.Waiting[i] {
			q.waiting++
			q.subscribe(tags[i], waiter{pos: pos, slot: int32(s), op: int32(i)})
		}
	}
	if e.Ready() {
		q.markReady(s)
	}
	q.tail++
	q.tailSlot = q.nextSlot(s)
	q.count++
	q.newCount++
	b := q.bankOfSlot[s]
	if q.bankCount[b] == 0 {
		q.banksOn++
	}
	q.bankCount[b]++
	q.Stats.Dispatches++
	return pos, true
}

// subscribe records a waiting operand in the wakeup index, growing the
// dense tag table on first sight of a tag.
func (q *Queue) subscribe(tag int, w waiter) {
	if tag >= len(q.waiters) {
		grown := make([][]waiter, tag+1)
		copy(grown, q.waiters)
		q.waiters = grown
	}
	q.waiters[tag] = append(q.waiters[tag], w)
}

func (q *Queue) markReady(slot int) {
	q.ready[slot>>6] |= 1 << uint(slot&63)
	q.readyCount++
}

func (q *Queue) clearReady(slot int) {
	w := slot >> 6
	bit := uint64(1) << uint(slot&63)
	if q.ready[w]&bit != 0 {
		q.ready[w] &^= bit
		q.readyCount--
	}
}

// Issue removes the valid entry at pos (it has been selected and read its
// payload). The head and new_head pointers slide past any invalid entries
// they now point to, exactly like the paper's figure 2.
func (q *Queue) Issue(pos int64) {
	if pos < q.head || pos >= q.tail {
		panic(fmt.Sprintf("iq: issuing pos %d outside [%d, %d)", pos, q.head, q.tail))
	}
	s := q.slotOf(pos)
	e := &q.ring[s]
	if !e.Valid {
		panic(fmt.Sprintf("iq: issuing invalid entry at pos %d", pos))
	}
	for i := 0; i < OperandsPerEntry; i++ {
		if e.Waiting[i] {
			q.waiting--
			q.unsubscribe(e.Tag[i], pos, i)
		}
	}
	e.Valid = false
	q.clearReady(s)
	q.count--
	if pos >= q.newHead {
		q.newCount--
	}
	b := q.bankOfSlot[s]
	q.bankCount[b]--
	if q.bankCount[b] == 0 {
		q.banksOn--
	}
	q.Stats.Issues++
	q.advanceHeads()
}

// unsubscribe removes one waiter from the wakeup index. It only runs when
// an entry is issued with operands still waiting — a path the simulator
// never takes (only ready entries issue) but the Queue API permits.
func (q *Queue) unsubscribe(tag int, pos int64, op int) {
	if tag < 0 || tag >= len(q.waiters) {
		return
	}
	list := q.waiters[tag]
	for i := range list {
		if list[i].pos == pos && int(list[i].op) == op {
			list[i] = list[len(list)-1]
			q.waiters[tag] = list[:len(list)-1]
			return
		}
	}
}

func (q *Queue) advanceHeads() {
	for q.head < q.tail && !q.ring[q.headSlot].Valid {
		q.head++
		q.headSlot = q.nextSlot(q.headSlot)
	}
	if q.newHead < q.head {
		q.newHead, q.newHeadSlot = q.head, q.headSlot
	}
	for q.newHead < q.tail && !q.ring[q.newHeadSlot].Valid {
		q.newHead++
		q.newHeadSlot = q.nextSlot(q.newHeadSlot)
	}
}

// BeginCycle latches the waiting-operand and occupancy counts used to
// charge this cycle's broadcasts, and samples occupancy statistics for n
// cycles over which the queue does not change.
func (q *Queue) BeginCycle(n int64) {
	q.latchedWaiting = q.waiting
	q.latchedCount = q.count
	q.Stats.Cycles += n
	q.Stats.OccupancySum += n * int64(q.count)
	q.Stats.SpanSum += n * int64(q.Span())
	q.Stats.BanksOnSum += n * int64(q.banksOn)
	q.Stats.NewCountSum += n * int64(q.newCount)
}

// Broadcast wakes all operands waiting on tag and charges wakeup energy
// under the three gating schemes. It returns the number of operands woken.
//
// The energy accounting is independent of the wakeup mechanism: it always
// charges the latched CAM populations (what the modelled hardware
// precharges), although the simulator finds the woken operands through
// the tag index rather than a scan.
func (q *Queue) Broadcast(tag int) int {
	q.Stats.Broadcasts++
	q.Stats.GatedWakeups += int64(q.latchedWaiting)
	q.Stats.NonEmptyWakeups += int64(OperandsPerEntry * q.latchedCount)
	q.Stats.UngatedWakeups += int64(OperandsPerEntry * q.cfg.Entries)
	woken := q.broadcastIndexed(tag)
	q.Stats.Woken += int64(woken)
	return woken
}

// broadcastIndexed consumes the tag's subscriber list. A subscriber is
// stale when its slot has been reissued (posOf mismatch) or its operand
// already woke; every live subscriber necessarily waits on this tag, so
// the whole list empties.
func (q *Queue) broadcastIndexed(tag int) int {
	if tag < 0 || tag >= len(q.waiters) {
		return 0
	}
	list := q.waiters[tag]
	if len(list) == 0 {
		return 0
	}
	woken := 0
	for _, w := range list {
		s := int(w.slot)
		e := &q.ring[s]
		if !e.Valid || q.posOf[s] != w.pos || !e.Waiting[w.op] {
			continue
		}
		e.Waiting[w.op] = false
		q.waiting--
		woken++
		if e.Ready() {
			q.markReady(s)
		}
	}
	q.waiters[tag] = list[:0]
	return woken
}

// ForEachValid visits valid entries oldest-first; the visitor returns
// false to stop early.
func (q *Queue) ForEachValid(f func(pos int64, e *Entry) bool) {
	s := q.headSlot
	for pos := q.head; pos < q.tail; pos, s = pos+1, q.nextSlot(s) {
		e := &q.ring[s]
		if !e.Valid {
			continue
		}
		if !f(pos, e) {
			return
		}
	}
}

// ForEachReady visits ready entries oldest-first (by position, like
// ForEachValid restricted to Ready entries) using the incrementally
// maintained ready list, so the cost scales with the ready population
// rather than the window span. The visitor returns false to stop early;
// it must not dispatch or issue during the walk.
func (q *Queue) ForEachReady(f func(pos int64, e *Entry) bool) {
	if q.readyCount == 0 || q.head == q.tail {
		return
	}
	start := q.headSlot
	span := int(q.tail - q.head)
	end := start + span
	if end <= q.ringSize {
		q.scanReady(start, end, q.head-int64(start), f)
		return
	}
	if !q.scanReady(start, q.ringSize, q.head-int64(start), f) {
		return
	}
	q.scanReady(0, end-q.ringSize, q.head+int64(q.ringSize-start), f)
}

// scanReady visits set ready bits in slot range [lo, hi); the virtual
// position of slot s is base+s. Returns false if the visitor stopped.
func (q *Queue) scanReady(lo, hi int, base int64, f func(pos int64, e *Entry) bool) bool {
	if lo >= hi {
		return true
	}
	first, last := lo>>6, (hi-1)>>6
	for w := first; w <= last; w++ {
		word := q.ready[w]
		if w == first {
			word &= ^uint64(0) << uint(lo&63)
		}
		if w == last && (hi&63) != 0 {
			word &= ^uint64(0) >> uint(64-hi&63)
		}
		for word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if !f(base+int64(s), &q.ring[s]) {
				return false
			}
		}
	}
	return true
}

// NewHead and Tail expose the virtual pointers (tests, debugging).
func (q *Queue) NewHead() int64 { return q.newHead }
func (q *Queue) Tail() int64    { return q.tail }

// CheckInvariants verifies internal consistency; tests call it after
// random operation sequences.
func (q *Queue) CheckInvariants() error {
	if q.head > q.newHead || q.newHead > q.tail {
		return fmt.Errorf("pointer order violated: head=%d newHead=%d tail=%d", q.head, q.newHead, q.tail)
	}
	if q.Span() > q.ringSize {
		return fmt.Errorf("span %d exceeds ring %d", q.Span(), q.ringSize)
	}
	if q.cfg.Collapsible && q.count > q.cfg.Entries {
		return fmt.Errorf("count %d exceeds capacity %d", q.count, q.cfg.Entries)
	}
	for _, p := range []struct {
		name string
		pos  int64
		slot int
	}{{"head", q.head, q.headSlot}, {"newHead", q.newHead, q.newHeadSlot}, {"tail", q.tail, q.tailSlot}} {
		if want := int(p.pos % int64(q.ringSize)); p.slot != want {
			return fmt.Errorf("%s slot %d, want %d (pos %d mod %d)", p.name, p.slot, want, p.pos, q.ringSize)
		}
	}
	count, waiting, newCount, ready := 0, 0, 0, 0
	bank := make([]int, len(q.bankCount))
	for pos := q.head; pos < q.tail; pos++ {
		s := int(pos % int64(q.ringSize))
		e := &q.ring[s]
		if !e.Valid {
			continue
		}
		count++
		bank[s/q.cfg.BankSize]++
		if pos >= q.newHead {
			newCount++
		}
		if q.posOf[s] != pos {
			return fmt.Errorf("posOf[%d] = %d, want %d", s, q.posOf[s], pos)
		}
		if got := q.ready[s>>6]&(1<<uint(s&63)) != 0; got != e.Ready() {
			return fmt.Errorf("ready bit for pos %d = %v, entry ready = %v", pos, got, e.Ready())
		}
		if e.Ready() {
			ready++
		}
		for i := 0; i < OperandsPerEntry; i++ {
			if e.Waiting[i] {
				waiting++
				if !q.subscribed(e.Tag[i], pos, s, i) {
					return fmt.Errorf("waiting operand %d of pos %d (slot %d, tag %d) missing from wakeup index", i, pos, s, e.Tag[i])
				}
			}
		}
	}
	if ready != q.readyCount {
		return fmt.Errorf("readyCount %d != recomputed %d", q.readyCount, ready)
	}
	banksOn := 0
	for _, c := range q.bankCount {
		if c > 0 {
			banksOn++
		}
	}
	if banksOn != q.banksOn {
		return fmt.Errorf("banksOn %d != recomputed %d", q.banksOn, banksOn)
	}
	if count != q.count {
		return fmt.Errorf("count %d != recomputed %d", q.count, count)
	}
	if waiting != q.waiting {
		return fmt.Errorf("waiting %d != recomputed %d", q.waiting, waiting)
	}
	if newCount != q.newCount {
		return fmt.Errorf("newCount %d != recomputed %d", q.newCount, newCount)
	}
	for b := range bank {
		if bank[b] != q.bankCount[b] {
			return fmt.Errorf("bank %d count %d != recomputed %d", b, q.bankCount[b], bank[b])
		}
	}
	if q.head < q.tail && !q.ring[q.headSlot].Valid {
		return fmt.Errorf("head points at invalid entry")
	}
	if q.newHead < q.tail && !q.ring[q.newHeadSlot].Valid {
		return fmt.Errorf("newHead points at invalid entry")
	}
	if q.maxNewRange > 0 && q.newCount > q.maxNewRange {
		return fmt.Errorf("newCount %d exceeds maxNewRange %d", q.newCount, q.maxNewRange)
	}
	return nil
}

// subscribed reports whether (pos, slot, op) appears in the wakeup index
// under tag (invariant checking only).
func (q *Queue) subscribed(tag int, pos int64, slot, op int) bool {
	if tag < 0 || tag >= len(q.waiters) {
		return false
	}
	for _, w := range q.waiters[tag] {
		if w.pos == pos && int(w.slot) == slot && int(w.op) == op {
			return true
		}
	}
	return false
}
