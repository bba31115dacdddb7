package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/adaptive"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/trace"
)

// fpTagBase separates the floating-point physical tag space from the
// integer one on the shared wakeup broadcast.
const fpTagBase = 1 << 12

// completionRing must exceed the longest possible operation latency.
const completionRing = 128

type uopState uint8

const (
	uopInIQ uopState = iota
	uopIssued
	uopDone
)

type uop struct {
	d        trace.DynInst
	class    isa.Class
	state    uopState
	destPhys int // -1 = none
	prevPhys int
	destFP   bool
	srcPhys  [2]int // -1 = none
	srcFP    [2]bool

	isLoad, isStore bool
	blocksFetch     bool  // mispredicted control transfer: fetch waits on it
	storeIdx        int64 // virtual store-ring index (stores only)
}

type fqEntry struct {
	d           trace.DynInst
	readyCycle  int64 // decode complete
	blocksFetch bool
}

// Core is one simulated processor instance.
type Core struct {
	cfg Config

	q    *iq.Queue
	irf  *regfile.File
	frf  *regfile.File
	mem  *cache.Hierarchy
	bp   *bpred.Predictor
	ctrl *adaptive.Controller

	stream     trace.Stream
	streamDone bool

	rob      []uop
	robHead  int
	robTail  int
	robCount int

	fq      []fqEntry
	fqHead  int
	fqTail  int
	fqCount int

	complete [completionRing][]int // cycle%ring -> rob indexes

	// Stores in flight (dispatch..commit), a FIFO in program order kept in
	// a fixed ring indexed by virtual position (storeHead..storeTail), like
	// the issue queue. unresolved counts in-flight stores without a
	// resolved address; unresolvedFrom is a cursor at the oldest position
	// that may still be unresolved, advanced lazily — together they answer
	// loadMayIssue in O(1) amortised instead of a FIFO scan. lastStoreTo
	// maps an address to the youngest in-flight store writing it; each
	// store chains to the previous same-address store (prevSameAddr), so
	// forwarding walks only same-address stores, youngest first.
	stores         []storeRec
	storeHead      int64
	storeTail      int64
	unresolved     int
	unresolvedFrom int64
	lastStoreTo    map[uint64]int64
	loads          int // loads in flight for LSQ occupancy

	picks []pick // issue-cycle scratch, reused across cycles

	// segTarget stops the run at a total committed-real count (see
	// RunSegment); 0 = unset.
	segTarget int64

	cycle           int64
	fetchStallUntil int64 // next cycle fetch may proceed (icache miss/bubble)
	fetchBlocked    bool  // waiting on a mispredicted control transfer
	lastFetchLine   int   // last I-cache line touched, -1 initially
	fetchLineShift  int   // log2(IL1 line bytes) when a power of two, else -1

	// Read from the hierarchy once, so fetch and execLatency do not copy
	// a cache.Config per cycle or per forwarded load.
	il1LineBytes, il1HitCycles, dl1HitCycles int

	// stall is what this cycle's dispatch stall charged; skipIdle charges
	// it again for every cycle it skips.
	stall dispatchStall

	committedReal  int64
	committedHints int64

	st Stats
}

// dispatchStall records what one cycle's dispatch stall charged: the
// Stats stall counter it bumped (nil while the fetch-queue head is still
// decoding), whether it re-applied the head's Extension tag, and the
// register file whose Allocate failed (nil if none). skipIdle reads it
// only after an idle cycle, in which nothing dispatched, so all of it
// belongs to the fetch-queue head.
type dispatchStall struct {
	counter *int64
	hint    bool
	file    *regfile.File
}

type storeRec struct {
	seq          int64
	addr         uint64
	resolved     bool
	prevSameAddr int64 // virtual index of the previous store to addr, -1 none
}

// pick is one selected (issue-queue position, ROB index) pair.
type pick struct {
	pos int64
	idx int
}

// storeAt returns the in-flight store at virtual index i. The ring is a
// power of two so the slot computes with a mask, not a division.
func (c *Core) storeAt(i int64) *storeRec {
	return &c.stores[int(i)&(len(c.stores)-1)]
}

// storeCount returns the number of stores in flight.
func (c *Core) storeCount() int { return int(c.storeTail - c.storeHead) }

// Stats are the run's raw event counts, consumed by the power model and
// the experiment harness.
type Stats struct {
	Cycles         int64
	CommittedReal  int64 // real instructions committed
	CommittedHints int64 // hint NOOPs consumed (dispatch slots spent)

	FetchedInsts int64
	Mispredicts  int64
	BTBBubbles   int64

	// Dispatch stall attribution (cycles in which at least one dispatch
	// slot went unused for the reason).
	StallIQFull     int64
	StallHintLimit  int64
	StallSizeLimit  int64
	StallROBFull    int64
	StallNoPhysReg  int64
	StallLSQFull    int64
	StallFetchEmpty int64

	HintsApplied int64
	Resizes      int64

	// LatencyClamped counts operations whose execution latency exceeded
	// the completion ring and was clamped to its span (see Core.issue).
	LatencyClamped int64

	IQ    iq.Stats
	IntRF regfile.Stats
	FPRF  regfile.Stats
	Bpred bpred.Stats
	IL1   cache.Stats
	DL1   cache.Stats
	L2    cache.Stats
}

// IPC returns committed real instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.CommittedReal) / float64(s.Cycles)
}

// AvgIQOccupancy returns the mean number of valid issue-queue entries.
func (s *Stats) AvgIQOccupancy() float64 {
	if s.IQ.Cycles == 0 {
		return 0
	}
	return float64(s.IQ.OccupancySum) / float64(s.IQ.Cycles)
}

// AvgIQBanksOn returns the mean number of enabled issue-queue banks.
func (s *Stats) AvgIQBanksOn() float64 {
	if s.IQ.Cycles == 0 {
		return 0
	}
	return float64(s.IQ.BanksOnSum) / float64(s.IQ.Cycles)
}

// AvgIntRFBanksOn returns the mean number of live integer regfile banks.
func (s *Stats) AvgIntRFBanksOn() float64 {
	if s.IntRF.Cycles == 0 {
		return 0
	}
	return float64(s.IntRF.BanksOnSum) / float64(s.IntRF.Cycles)
}

// AvgIntRFLive returns the mean number of live integer physical registers.
func (s *Stats) AvgIntRFLive() float64 {
	if s.IntRF.Cycles == 0 {
		return 0
	}
	return float64(s.IntRF.LiveSum) / float64(s.IntRF.Cycles)
}

// New builds a core over a dynamic instruction stream.
func New(cfg Config, stream trace.Stream) (*Core, error) {
	mem, err := cache.NewHierarchy(cfg.Caches)
	if err != nil {
		return nil, err
	}
	return NewResumable(cfg, stream, mem, bpred.New(cfg.Bpred))
}

// NewResumable builds a core over a pre-existing memory hierarchy and
// branch predictor — the entry point of the sampled-simulation engine,
// which functionally warms both between detailed windows. The stream may
// resume mid-run: nothing in the core assumes sequence numbers start at
// 0 (store ordering and forwarding use only relative Seq comparisons),
// and the caller's MaxInsts counts commits within this run, not absolute
// positions. It is Reset on a zero Core.
func NewResumable(cfg Config, stream trace.Stream, mem *cache.Hierarchy, bp *bpred.Predictor) (*Core, error) {
	c := new(Core)
	if err := c.Reset(cfg, stream, mem, bp); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset makes c the core NewResumable would build from the same
// arguments, whatever c ran before, including a run cut short by
// MaxCycles or cancellation: a following run's Stats are those of a new
// core. It keeps c's storage wherever that is large enough — the ROB,
// the fetch queue, the store and completion rings, the store-address
// map, the issue queue and both register files — so the sampled engine
// runs every window of a cell on one core instead of building one per
// window. A zero Core is a valid receiver. On error c must be Reset
// again before it runs.
func (c *Core) Reset(cfg Config, stream trace.Stream, mem *cache.Hierarchy, bp *bpred.Predictor) error {
	if c.q == nil {
		c.q, c.irf, c.frf = new(iq.Queue), new(regfile.File), new(regfile.File)
	}
	if err := c.q.Reset(cfg.IQ); err != nil {
		return err
	}
	if err := c.irf.Reset(cfg.IntRF); err != nil {
		return err
	}
	if err := c.frf.Reset(cfg.FPRF); err != nil {
		return err
	}
	if mem == nil || bp == nil {
		return fmt.Errorf("sim: nil hierarchy or predictor")
	}
	if cfg.ROBSize <= 0 || cfg.FetchQueueSize <= 0 {
		return fmt.Errorf("sim: non-positive ROB or fetch queue size")
	}
	// Ring capacity: next power of two >= LSQSize (the LSQ check in
	// dispatch bounds occupancy; extra slots are just unused storage).
	storeCap := 1
	for storeCap < cfg.LSQSize {
		storeCap <<= 1
	}
	*c = Core{
		cfg:           cfg,
		q:             c.q,
		irf:           c.irf,
		frf:           c.frf,
		mem:           mem,
		bp:            bp,
		stream:        stream,
		rob:           zeroed(c.rob, cfg.ROBSize),
		fq:            zeroed(c.fq, cfg.FetchQueueSize),
		complete:      c.complete,
		stores:        zeroed(c.stores, storeCap),
		lastStoreTo:   c.lastStoreTo,
		picks:         slices.Grow(c.picks[:0], cfg.IssueWidth),
		lastFetchLine: -1,
	}
	for i := range c.complete {
		c.complete[i] = c.complete[i][:0]
	}
	if c.lastStoreTo == nil {
		c.lastStoreTo = make(map[uint64]int64)
	}
	clear(c.lastStoreTo)
	il1 := mem.IL1.Config()
	c.il1LineBytes, c.il1HitCycles = il1.LineBytes, il1.HitCycles
	c.dl1HitCycles = mem.DL1.Config().HitCycles
	c.fetchLineShift = -1
	if lb := c.il1LineBytes; lb > 0 && lb&(lb-1) == 0 {
		c.fetchLineShift = bits.TrailingZeros(uint(lb))
	}
	if cfg.Control == ControlAdaptive {
		c.ctrl = adaptive.New(cfg.Adaptive, c.q.Banks(), cfg.IQ.BankSize)
		c.q.SetSizeLimit(c.ctrl.Limit())
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

// PresetHint seeds the issue queue's max_new_range before the run, as if
// a hint had just been dispatched. The sampled-simulation engine uses it
// to carry the last hint observed during fast-forward into a detailed
// window, which would otherwise start each window with an uncontrolled
// queue under ControlHints. It is a no-op unless hints control the queue.
func (c *Core) PresetHint(entries int) {
	if c.cfg.Control == ControlHints && entries > 0 {
		c.q.SetHint(entries)
	}
}

// robCap returns the effective ROB capacity (abella caps it at 64).
func (c *Core) robCap() int {
	if c.cfg.Control == ControlAdaptive && c.cfg.Adaptive.ROBLimit > 0 &&
		c.cfg.Adaptive.ROBLimit < c.cfg.ROBSize {
		return c.cfg.Adaptive.ROBLimit
	}
	return c.cfg.ROBSize
}

// ctxPollCycles is how often RunContext polls for cancellation: whenever
// the cycle count crosses a multiple of it, by a step or by a skip. A
// power of two so the check is a shift; 4096 cycles is microseconds of
// wall time, far below human-visible cancellation latency, while keeping
// the branch essentially free in the cycle loop.
const ctxPollCycles = 4096

// Run simulates until the stream is exhausted and the pipeline drains, or
// a configured limit is reached, and returns the statistics.
func (c *Core) Run() Stats {
	st, _ := c.RunContext(context.Background())
	return st
}

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every ctxPollCycles cycles, so campaign cancellation takes effect
// mid-job instead of at job granularity. On cancellation the partial
// statistics accumulated so far are returned alongside ctx's error.
func (c *Core) RunContext(ctx context.Context) (Stats, error) {
	return c.RunSegment(ctx, 0)
}

// RunSegment runs until target total committed real instructions (0 =
// no segment limit), the configured limits, or cancellation — whichever
// comes first — and returns a snapshot of the cumulative statistics. It
// may be called repeatedly with increasing targets: the sampled
// simulation engine runs each detailed window as two segments (detailed
// pipeline warm-up, then the measured unit) and differences the
// snapshots, so the measured unit starts from a full pipeline.
//
// After an idle cycle the loop skips ahead to the next cycle in which
// something can happen (see skipIdle), so long memory stalls cost one
// step, not one per cycle; the statistics are those of stepping every
// cycle.
func (c *Core) RunSegment(ctx context.Context, target int64) (Stats, error) {
	c.segTarget = target
	var err error
	for !c.done() {
		from := c.cycle
		if idle := c.step(); idle {
			c.skipIdle()
		}
		if c.cfg.MaxCycles > 0 && c.cycle >= c.cfg.MaxCycles {
			break
		}
		if c.cycle/ctxPollCycles != from/ctxPollCycles {
			if err = ctx.Err(); err != nil {
				break
			}
		}
	}
	return c.snapshot(), err
}

// snapshot gathers the cumulative statistics from the core and its
// components.
func (c *Core) snapshot() Stats {
	c.st.Cycles = c.cycle
	c.st.CommittedReal = c.committedReal
	c.st.CommittedHints = c.committedHints
	c.st.IQ = c.q.Stats
	c.st.IntRF = c.irf.Stats
	c.st.FPRF = c.frf.Stats
	c.st.Bpred = c.bp.Stats
	c.st.IL1 = c.mem.IL1.Stats
	c.st.DL1 = c.mem.DL1.Stats
	c.st.L2 = c.mem.L2.Stats
	if c.ctrl != nil {
		c.st.Resizes = c.ctrl.Resizes()
	}
	return c.st
}

func (c *Core) done() bool {
	if c.segTarget > 0 && c.committedReal >= c.segTarget {
		return true
	}
	if c.cfg.MaxInsts > 0 && c.committedReal >= c.cfg.MaxInsts {
		return true
	}
	return c.streamDone && c.robCount == 0 && c.fqCount == 0
}

// step advances one cycle through all pipeline stages, oldest first. It
// reports whether the cycle was idle: nothing committed, wrote back,
// issued, dispatched (hint NOOPs included) or was fetched, the stream did
// not end, and the adaptive limit did not change.
func (c *Core) step() (idle bool) {
	c.cycle++
	c.q.BeginCycle(1)
	committed := c.commit()
	wrote := c.writeback()
	issued := c.issue()
	dispatched := c.dispatch()
	fetched := c.fetch()
	c.irf.Tick(1)
	c.frf.Tick(1)
	resized := false
	if c.ctrl != nil {
		var limit int
		limit, resized = c.ctrl.OnCycle(1, c.q.SizeLimitBlocked())
		if resized {
			c.q.SetSizeLimit(limit)
		}
	}
	if c.cfg.Probe != nil {
		c.cfg.Probe.Sample(c.cycle, c.probeSample())
	}
	return !committed && !wrote && !issued && !dispatched && !fetched && !resized
}

// probeSample reads the machine state a Probe observes.
func (c *Core) probeSample() ProbeSample {
	return ProbeSample{
		IQCount:     c.q.Count(),
		IQBanksOn:   c.q.BanksOn(),
		MaxNewRange: c.q.MaxNewRange(),
		IntRFLive:   c.irf.Live(),
		ROBCount:    c.robCount,
		FetchQueue:  c.fqCount,
	}
}

// skipIdle follows an idle cycle. Until the next event that can change
// the machine (nextEvent), every cycle would repeat that one exactly:
// the same stages find nothing to do, and the same per-cycle statistics
// are charged from the same state. So it advances to the cycle before
// the event, or to MaxCycles, and charges the skipped cycles in bulk:
// the occupancy samples of the queue and both register files, the
// dispatch stall of the idle cycle (its counter, a re-applied Extension
// tag, a failed register allocation) and the adaptive controller's
// cycle and stall counts. A Probe still sees every cycle.
func (c *Core) skipIdle() {
	next := c.nextEvent()
	if c.cfg.MaxCycles > 0 && c.cfg.MaxCycles < next-1 {
		next = c.cfg.MaxCycles + 1 // stop where RunSegment does
	} else if next == math.MaxInt64 {
		return // stuck for good with no MaxCycles: step until cancelled
	}
	n := next - 1 - c.cycle
	if n <= 0 {
		return
	}
	c.q.BeginCycle(n)
	c.irf.Tick(n)
	c.frf.Tick(n)
	if c.stall.counter != nil {
		*c.stall.counter += n
	}
	if c.stall.hint {
		c.st.HintsApplied += n
		c.q.Stats.HintSets += n
	}
	if c.stall.file != nil {
		c.stall.file.Stats.AllocFails += n
	}
	if c.ctrl != nil {
		// n stops short of the deciding cycle, so the limit holds.
		c.ctrl.OnCycle(n, c.q.SizeLimitBlocked())
	}
	if c.cfg.Probe == nil {
		c.cycle += n
		return
	}
	s := c.probeSample()
	for end := c.cycle + n; c.cycle < end; {
		c.cycle++
		c.cfg.Probe.Sample(c.cycle, s)
	}
}

// nextEvent returns the earliest cycle after an idle one in which the
// machine can change, or math.MaxInt64 if none is pending. Nothing else
// can start activity: commit, issue and dispatch wait on writebacks (or on
// each other), and fetch on its stall, a mispredict's writeback or room
// that dispatch makes.
func (c *Core) nextEvent() int64 {
	next := int64(math.MaxInt64)
	// A completion is due. The scan covers the whole ring, ending at the
	// current slot, where a latency clamped to completionRing lands.
	for k := int64(1); k <= completionRing; k++ {
		if len(c.complete[(c.cycle+k)%completionRing]) > 0 {
			next = c.cycle + k
			break
		}
	}
	// Fetch's I-cache miss or bubble ends.
	if !c.fetchBlocked && !c.streamDone && c.fqCount < len(c.fq) {
		next = min(next, c.fetchStallUntil)
	}
	// The fetch-queue head finishes decoding.
	if c.fqCount > 0 {
		if r := c.fq[c.fqHead].readyCycle; r > c.cycle {
			next = min(next, r)
		}
	}
	// The adaptive controller decides, which may unblock dispatch.
	if c.ctrl != nil {
		next = min(next, c.cycle+c.ctrl.CyclesToDecision())
	}
	return next
}

// commit retires up to CommitWidth completed instructions in order and
// reports whether it retired any.
func (c *Core) commit() bool {
	n := 0
	for ; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		u := &c.rob[c.robHead]
		if u.state != uopDone {
			break
		}
		if u.isStore {
			c.mem.StoreAccess(u.d.Addr)
			// The store at the head of the store FIFO is this one.
			s := c.storeAt(c.storeHead)
			if li, ok := c.lastStoreTo[s.addr]; ok && li == c.storeHead {
				delete(c.lastStoreTo, s.addr)
			}
			c.storeHead++
			if c.unresolvedFrom < c.storeHead {
				c.unresolvedFrom = c.storeHead
			}
		}
		if u.isLoad {
			c.loads--
		}
		if u.prevPhys >= 0 {
			c.file(u.destFP).Free(u.prevPhys)
		}
		c.committedReal++
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		if c.segTarget > 0 && c.committedReal >= c.segTarget {
			return true
		}
		if c.cfg.MaxInsts > 0 && c.committedReal >= c.cfg.MaxInsts {
			return true
		}
	}
	return n > 0
}

func (c *Core) file(fp bool) *regfile.File {
	if fp {
		return c.frf
	}
	return c.irf
}

// writeback completes the operations due this cycle and reports whether
// there were any.
func (c *Core) writeback() bool {
	slot := int(c.cycle % completionRing)
	if len(c.complete[slot]) == 0 {
		return false
	}
	for _, idx := range c.complete[slot] {
		u := &c.rob[idx]
		u.state = uopDone
		if u.destPhys >= 0 {
			f := c.file(u.destFP)
			f.MarkReady(u.destPhys)
			f.Write()
			tag := u.destPhys
			if u.destFP {
				tag += fpTagBase
			}
			c.q.Broadcast(tag)
		}
		if u.blocksFetch {
			c.fetchBlocked = false
			if c.fetchStallUntil <= c.cycle {
				c.fetchStallUntil = c.cycle + 1
			}
		}
	}
	c.complete[slot] = c.complete[slot][:0]
	return true
}

// issue selects up to IssueWidth ready instructions oldest-first, subject
// to functional-unit and memory-port limits and load/store ordering. It
// walks only the issue queue's ready list, not the whole window. It
// reports whether anything issued.
func (c *Core) issue() bool {
	var unitsUsed [isa.NumClasses]int
	memPortsUsed := 0
	issued := 0
	loadsBlocked := false
	c.picks = c.picks[:0]
	sel := func(pos int64, e *iq.Entry) bool {
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
			if u.isLoad {
				// Selection never resolves stores (that happens in the
				// pick loop below), so once one load is blocked by an
				// older unresolved store, every younger load is too.
				if loadsBlocked {
					return true
				}
				if !c.loadMayIssue(u) {
					loadsBlocked = true
					return true
				}
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
	}
	c.q.ForEachReady(sel)
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
		lat := c.execLatency(u)
		if u.isStore {
			c.resolveStore(u)
		}
		if lat > completionRing {
			// An L2-miss chain can in principle exceed the ring span; a
			// longer latency would alias an earlier slot and complete the
			// op far too early. Clamp and count instead.
			lat = completionRing
			c.st.LatencyClamped++
		}
		due := (c.cycle + int64(lat)) % completionRing
		c.complete[due] = append(c.complete[due], p.idx)
	}
	return len(c.picks) > 0
}

// loadMayIssue enforces conservative memory disambiguation: every older
// in-flight store must have a resolved address; a matching one forwards.
// It answers from the unresolved-store counter and cursor rather than a
// scan of the store FIFO.
func (c *Core) loadMayIssue(u *uop) bool {
	if c.unresolved == 0 {
		return true
	}
	for c.unresolvedFrom < c.storeTail && c.storeAt(c.unresolvedFrom).resolved {
		c.unresolvedFrom++
	}
	if c.unresolvedFrom >= c.storeTail {
		return true
	}
	// The oldest unresolved store must be younger than the load.
	return c.storeAt(c.unresolvedFrom).seq >= u.d.Seq
}

func (c *Core) resolveStore(u *uop) {
	c.storeAt(u.storeIdx).resolved = true
	c.unresolved--
}

// execLatency computes the operation latency, consulting the cache model
// for loads (with store forwarding).
func (c *Core) execLatency(u *uop) int {
	if u.isLoad {
		// Forward from the youngest older store to the same word: walk the
		// same-address chain youngest-first; in-order commit guarantees
		// that once an index drops below storeHead the rest of the chain
		// has committed too.
		if idx, ok := c.lastStoreTo[u.d.Addr]; ok {
			for idx >= c.storeHead {
				s := c.storeAt(idx)
				if s.seq < u.d.Seq {
					return c.dl1HitCycles
				}
				idx = s.prevSameAddr
			}
		}
		return c.mem.LoadLatency(u.d.Addr)
	}
	return u.d.Op.Latency()
}

// dispatch moves up to DispatchWidth decoded instructions from the fetch
// queue into the ROB and issue queue, renaming their registers. Hint
// NOOPs are stripped here — consuming a dispatch slot, as the paper notes
// (section 5.2.1) — and set max_new_range. It reports whether it took
// anything from the fetch queue, and records what a stall charged in
// c.stall.
func (c *Core) dispatch() bool {
	c.stall = dispatchStall{}
	if c.fqCount == 0 {
		c.stallOn(&c.st.StallFetchEmpty)
		return false
	}
	n := 0
	for ; n < c.cfg.DispatchWidth && c.fqCount > 0; n++ {
		fe := &c.fq[c.fqHead]
		if fe.readyCycle > c.cycle {
			break
		}
		d := &fe.d
		if d.Op == isa.HintNop {
			// Stripped at the final decode stage; costs this slot.
			if c.cfg.Control == ControlHints {
				c.q.SetHint(d.Hint)
				c.st.HintsApplied++
			}
			c.committedHints++
			c.popFQ()
			continue
		}
		// Extension tags apply before the carrying instruction dispatches,
		// so a stalled instruction applies its tag again every cycle.
		if c.cfg.Control == ControlHints && d.Hint > 0 {
			c.q.SetHint(d.Hint)
			c.st.HintsApplied++
			c.stall.hint = true
		}
		if c.robCount >= c.robCap() {
			c.stallOn(&c.st.StallROBFull)
			break
		}
		if !c.q.CanDispatch() {
			switch {
			case c.q.HintBlocked():
				c.stallOn(&c.st.StallHintLimit)
			case c.q.SizeLimitBlocked():
				c.stallOn(&c.st.StallSizeLimit)
			default:
				c.stallOn(&c.st.StallIQFull)
			}
			break
		}
		if d.Op.IsMem() && c.loads+c.storeCount() >= c.cfg.LSQSize {
			c.stallOn(&c.st.StallLSQFull)
			break
		}
		if !c.rename(fe) {
			c.stallOn(&c.st.StallNoPhysReg)
			break
		}
		c.popFQ()
	}
	return n > 0
}

// stallOn charges one cycle of dispatch stall to counter and records it
// for skipIdle.
func (c *Core) stallOn(counter *int64) {
	*counter++
	c.stall.counter = counter
}

// rename builds the fetch-queue record's uop in the ROB's tail slot, which
// is free because dispatch checked ROB capacity, renames its sources and
// destination, and places it in the issue queue. It returns false on
// physical-register exhaustion: nothing is consumed and the slot stays
// unused.
func (c *Core) rename(fe *fqEntry) bool {
	d := &fe.d
	idx := c.robTail
	u := &c.rob[idx]
	u.d = *d
	u.class = d.Op.Class()
	u.state = uopInIQ
	u.destPhys, u.prevPhys, u.destFP = -1, -1, false
	u.srcPhys = [2]int{-1, -1}
	u.srcFP = [2]bool{}
	u.isLoad, u.isStore = d.Op.IsLoad(), d.Op.IsStore()
	u.blocksFetch = fe.blocksFetch
	u.storeIdx = 0
	var tags [2]int
	var waiting [2]bool
	tags[0], tags[1] = -1, -1
	srcs := [2]isa.Reg{d.Src1, d.Src2}
	for i, s := range srcs {
		if !s.Valid() || s == isa.RZero {
			continue
		}
		fp := s.IsFP()
		f := c.file(fp)
		arch := int(s)
		if fp {
			arch -= isa.IntRegs
		}
		phys := f.Rename(arch)
		u.srcPhys[i] = phys
		u.srcFP[i] = fp
		tags[i] = phys
		if fp {
			tags[i] += fpTagBase
		}
		waiting[i] = !f.IsReady(phys)
	}
	if d.Dst.Valid() && d.Dst != isa.RZero {
		fp := d.Dst.IsFP()
		f := c.file(fp)
		phys, ok := f.Allocate()
		if !ok {
			c.stall.file = f
			return false
		}
		arch := int(d.Dst)
		if fp {
			arch -= isa.IntRegs
		}
		u.destPhys = phys
		u.destFP = fp
		u.prevPhys = f.SetRename(arch, phys)
	}
	if _, ok := c.q.Dispatch(int64(idx), tags, waiting); !ok {
		panic("sim: issue queue refused a dispatch that CanDispatch allowed")
	}
	c.robTail++
	if c.robTail == len(c.rob) {
		c.robTail = 0
	}
	c.robCount++
	if u.isStore {
		prev := int64(-1)
		if p, ok := c.lastStoreTo[d.Addr]; ok {
			prev = p
		}
		*c.storeAt(c.storeTail) = storeRec{seq: d.Seq, addr: d.Addr, prevSameAddr: prev}
		c.lastStoreTo[d.Addr] = c.storeTail
		u.storeIdx = c.storeTail
		c.storeTail++
		c.unresolved++
	}
	if u.isLoad {
		c.loads++
	}
	return true
}

func (c *Core) popFQ() {
	c.fqHead++
	if c.fqHead == len(c.fq) {
		c.fqHead = 0
	}
	c.fqCount--
}

// fetch brings up to FetchWidth instructions from the stream into the
// fetch queue, consulting the I-cache, branch predictor, BTB and RAS.
// A mispredicted control transfer blocks fetch until it executes. Each
// record is written straight into its fetch-queue slot. It reports
// whether it fetched anything or found the end of the stream.
func (c *Core) fetch() bool {
	if c.fetchBlocked || c.streamDone || c.fetchStallUntil > c.cycle {
		return false
	}
	transfers := 0
	n := 0
	for ; n < c.cfg.FetchWidth; n++ {
		if c.fqCount >= len(c.fq) {
			break
		}
		fe := &c.fq[c.fqTail]
		if !c.stream.NextInto(&fe.d) {
			c.streamDone = true
			return true
		}
		// I-cache: one access per line transition.
		pc := fe.d.PC
		var line int
		if c.fetchLineShift >= 0 {
			line = pc >> uint(c.fetchLineShift)
		} else {
			line = pc / c.il1LineBytes
		}
		if line != c.lastFetchLine {
			c.lastFetchLine = line
			if lat := c.mem.FetchLatency(pc); lat > c.il1HitCycles {
				// Miss: this instruction arrives when the line does.
				c.fetchStallUntil = c.cycle + int64(lat)
				c.pushFQ(c.fetchStallUntil)
				c.predict(fe)
				return true
			}
		}
		c.pushFQ(c.cycle)
		if redirected := c.predict(fe); redirected {
			// The fetch unit follows one predicted-taken transfer per
			// cycle (a two-block fetch group); a second ends the group,
			// as do mispredict blocks and BTB bubbles.
			transfers++
			if transfers >= 2 || c.fetchBlocked || c.fetchStallUntil > c.cycle {
				return true
			}
		}
	}
	return n > 0
}

// pushFQ enqueues the record fetch wrote at the fetch-queue tail; it
// becomes dispatchable after the decode pipeline.
func (c *Core) pushFQ(fetchCycle int64) {
	fe := &c.fq[c.fqTail]
	fe.readyCycle = fetchCycle + int64(c.cfg.DecodeStages)
	fe.blocksFetch = false
	c.fqTail++
	if c.fqTail == len(c.fq) {
		c.fqTail = 0
	}
	c.fqCount++
	c.st.FetchedInsts++
}

// predict runs the front-end predictors for the record just fetched and
// returns whether fetch must stop this cycle (taken transfer, bubble, or
// mispredict block).
func (c *Core) predict(fe *fqEntry) bool {
	d := &fe.d
	switch {
	case d.Op.IsBranch():
		predTaken := c.bp.PredictCond(d.PC)
		c.bp.UpdateCond(d.PC, d.Taken)
		if d.Taken {
			tgt, hit := c.bp.LookupBTB(d.PC)
			c.bp.UpdateBTB(d.PC, d.NextPC)
			if predTaken && (!hit || tgt != d.NextPC) {
				// Right direction, unknown target: one-cycle bubble.
				c.st.BTBBubbles++
				if c.fetchStallUntil <= c.cycle {
					c.fetchStallUntil = c.cycle + 1
				}
			}
		}
		if predTaken != d.Taken {
			c.blockFetchOn(fe)
			return true
		}
		return d.Taken
	case d.Op == isa.Jmp:
		_, hit := c.bp.LookupBTB(d.PC)
		c.bp.UpdateBTB(d.PC, d.NextPC)
		if !hit {
			c.st.BTBBubbles++
			if c.fetchStallUntil <= c.cycle {
				c.fetchStallUntil = c.cycle + 1
			}
		}
		return true
	case d.Op.IsCall():
		c.bp.PushRAS(d.PC + isa.InstBytes)
		_, hit := c.bp.LookupBTB(d.PC)
		c.bp.UpdateBTB(d.PC, d.NextPC)
		if !hit {
			c.st.BTBBubbles++
			if c.fetchStallUntil <= c.cycle {
				c.fetchStallUntil = c.cycle + 1
			}
		}
		return true
	case d.Op == isa.Ret:
		if _, correct := c.bp.PopRAS(d.NextPC); !correct {
			c.blockFetchOn(fe)
		}
		return true
	}
	return false
}

// blockFetchOn marks the record just fetched as the one fetch waits for.
func (c *Core) blockFetchOn(fe *fqEntry) {
	c.st.Mispredicts++
	c.fetchBlocked = true
	fe.blocksFetch = true
}
