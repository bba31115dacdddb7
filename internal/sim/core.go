package sim

import (
	"context"
	"fmt"
	"math/bits"

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
	iqPos    int64
	destPhys int // -1 = none
	prevPhys int
	destFP   bool
	srcPhys  [2]int // -1 = none
	srcFP    [2]bool

	isLoad, isStore bool
	addrResolved    bool
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

	committedReal  int64
	committedHints int64

	st Stats
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
// which functionally warms both between detailed windows and hands them
// to a fresh core per window. The stream may resume mid-run: nothing in
// the core assumes sequence numbers start at 0 (store ordering and
// forwarding use only relative Seq comparisons), and the caller's
// MaxInsts counts commits within this run, not absolute positions.
func NewResumable(cfg Config, stream trace.Stream, mem *cache.Hierarchy, bp *bpred.Predictor) (*Core, error) {
	q, err := iq.New(cfg.IQ)
	if err != nil {
		return nil, err
	}
	irf, err := regfile.New(cfg.IntRF)
	if err != nil {
		return nil, err
	}
	frf, err := regfile.New(cfg.FPRF)
	if err != nil {
		return nil, err
	}
	if mem == nil || bp == nil {
		return nil, fmt.Errorf("sim: nil hierarchy or predictor")
	}
	if cfg.ROBSize <= 0 || cfg.FetchQueueSize <= 0 {
		return nil, fmt.Errorf("sim: non-positive ROB or fetch queue size")
	}
	// Ring capacity: next power of two >= LSQSize (the LSQ check in
	// dispatch bounds occupancy; extra slots are just unused storage).
	storeCap := 1
	for storeCap < cfg.LSQSize {
		storeCap <<= 1
	}
	c := &Core{
		cfg:           cfg,
		q:             q,
		irf:           irf,
		frf:           frf,
		mem:           mem,
		bp:            bp,
		stream:        stream,
		rob:           make([]uop, cfg.ROBSize),
		fq:            make([]fqEntry, cfg.FetchQueueSize),
		stores:        make([]storeRec, storeCap),
		lastStoreTo:   make(map[uint64]int64),
		picks:         make([]pick, 0, cfg.IssueWidth),
		lastFetchLine: -1,
	}
	c.fetchLineShift = -1
	if lb := mem.IL1.Config().LineBytes; lb > 0 && lb&(lb-1) == 0 {
		c.fetchLineShift = bits.TrailingZeros(uint(lb))
	}
	if cfg.Control == ControlAdaptive {
		c.ctrl = adaptive.New(cfg.Adaptive, q.Banks(), cfg.IQ.BankSize)
		q.SetSizeLimit(c.ctrl.Limit())
	}
	return c, nil
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

// ctxPollCycles is how often RunContext polls for cancellation. A power
// of two so the check is a mask; 4096 cycles is microseconds of wall
// time, far below human-visible cancellation latency, while keeping the
// branch essentially free in the cycle loop.
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
func (c *Core) RunSegment(ctx context.Context, target int64) (Stats, error) {
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

// step advances one cycle through all pipeline stages, oldest first.
func (c *Core) step() {
	c.cycle++
	c.q.BeginCycle()
	c.commit()
	c.writeback()
	c.issue()
	c.dispatch()
	c.fetch()
	c.irf.Tick()
	c.frf.Tick()
	if c.ctrl != nil {
		limit, changed := c.ctrl.OnCycle(c.q.SizeLimitBlocked())
		if changed {
			c.q.SetSizeLimit(limit)
		}
	}
	if c.cfg.Probe != nil {
		c.cfg.Probe.Sample(c.cycle, ProbeSample{
			IQCount:     c.q.Count(),
			IQBanksOn:   c.q.BanksOn(),
			MaxNewRange: c.q.MaxNewRange(),
			IntRFLive:   c.irf.Live(),
			ROBCount:    c.robCount,
			FetchQueue:  c.fqCount,
		})
	}
}

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		u := &c.rob[c.robHead]
		if u.state != uopDone {
			return
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
			return
		}
		if c.cfg.MaxInsts > 0 && c.committedReal >= c.cfg.MaxInsts {
			return
		}
	}
}

func (c *Core) file(fp bool) *regfile.File {
	if fp {
		return c.frf
	}
	return c.irf
}

func (c *Core) writeback() {
	slot := int(c.cycle % completionRing)
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
}

// issue selects up to IssueWidth ready instructions oldest-first, subject
// to functional-unit and memory-port limits and load/store ordering. It
// walks only the issue queue's ready list, not the whole window.
func (c *Core) issue() {
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
			u.addrResolved = true
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
					return c.mem.DL1.Config().HitCycles
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
// (section 5.2.1) — and set max_new_range.
func (c *Core) dispatch() {
	if c.fqCount == 0 {
		c.st.StallFetchEmpty++
		return
	}
	for n := 0; n < c.cfg.DispatchWidth && c.fqCount > 0; n++ {
		fe := &c.fq[c.fqHead]
		if fe.readyCycle > c.cycle {
			return
		}
		d := fe.d
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
		// Extension tags apply before the carrying instruction dispatches.
		if c.cfg.Control == ControlHints && d.Hint > 0 {
			c.q.SetHint(d.Hint)
			c.st.HintsApplied++
		}
		if c.robCount >= c.robCap() {
			c.st.StallROBFull++
			return
		}
		if !c.q.CanDispatch() {
			switch {
			case c.q.HintBlocked():
				c.st.StallHintLimit++
			case c.q.SizeLimitBlocked():
				c.st.StallSizeLimit++
			default:
				c.st.StallIQFull++
			}
			return
		}
		isMem := d.Op.IsMem()
		if isMem && c.loads+c.storeCount() >= c.cfg.LSQSize {
			c.st.StallLSQFull++
			return
		}
		if !c.rename(d, fe.blocksFetch) {
			c.st.StallNoPhysReg++
			return
		}
		c.popFQ()
	}
}

// rename allocates the ROB entry, renames sources and destination, and
// places the uop in the issue queue. Returns false on physical-register
// exhaustion (nothing is consumed).
func (c *Core) rename(d trace.DynInst, blocksFetch bool) bool {
	u := uop{
		d:           d,
		class:       d.Op.Class(),
		destPhys:    -1,
		prevPhys:    -1,
		srcPhys:     [2]int{-1, -1},
		isLoad:      d.Op.IsLoad(),
		isStore:     d.Op.IsStore(),
		blocksFetch: blocksFetch,
	}
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
	idx := c.robTail
	pos, ok := c.q.Dispatch(int64(idx), tags, waiting)
	if !ok {
		// Should not happen: CanDispatch was checked. Roll back rename.
		if u.destPhys >= 0 {
			f := c.file(u.destFP)
			arch := int(d.Dst)
			if u.destFP {
				arch -= isa.IntRegs
			}
			f.SetRename(arch, u.prevPhys)
			f.Free(u.destPhys)
		}
		return false
	}
	u.iqPos = pos
	u.state = uopInIQ
	c.rob[idx] = u
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
		c.rob[idx].storeIdx = c.storeTail
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
// A mispredicted control transfer blocks fetch until it executes.
func (c *Core) fetch() {
	if c.fetchBlocked || c.streamDone {
		return
	}
	if c.fetchStallUntil > c.cycle {
		return
	}
	lineBytes := c.mem.IL1.Config().LineBytes
	transfers := 0
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.fqCount >= len(c.fq) {
			return
		}
		d, ok := c.stream.Next()
		if !ok {
			c.streamDone = true
			return
		}
		// I-cache: one access per line transition.
		var line int
		if c.fetchLineShift >= 0 {
			line = d.PC >> uint(c.fetchLineShift)
		} else {
			line = d.PC / lineBytes
		}
		if line != c.lastFetchLine {
			c.lastFetchLine = line
			lat := c.mem.FetchLatency(d.PC)
			if lat > c.mem.IL1.Config().HitCycles {
				// Miss: this instruction arrives when the line does.
				c.fetchStallUntil = c.cycle + int64(lat)
				c.pushFQ(d, c.fetchStallUntil)
				c.predict(d)
				return
			}
		}
		c.pushFQ(d, c.cycle)
		if redirected := c.predict(d); redirected {
			// The fetch unit follows one predicted-taken transfer per
			// cycle (a two-block fetch group); a second ends the group,
			// as do mispredict blocks and BTB bubbles.
			transfers++
			if transfers >= 2 || c.fetchBlocked || c.fetchStallUntil > c.cycle {
				return
			}
		}
	}
}

// pushFQ inserts a fetched instruction; it becomes dispatchable after the
// decode pipeline.
func (c *Core) pushFQ(d trace.DynInst, fetchCycle int64) {
	c.fq[c.fqTail] = fqEntry{d: d, readyCycle: fetchCycle + int64(c.cfg.DecodeStages)}
	c.fqTail++
	if c.fqTail == len(c.fq) {
		c.fqTail = 0
	}
	c.fqCount++
	c.st.FetchedInsts++
}

// predict runs the front-end predictors for d and returns whether fetch
// must stop this cycle (taken transfer, bubble, or mispredict block).
func (c *Core) predict(d trace.DynInst) bool {
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
			c.blockFetchOn()
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
			c.blockFetchOn()
		}
		return true
	}
	return false
}

// blockFetchOn marks the most recently fetched instruction as the one
// fetch waits for (it is at the fetch-queue tail).
func (c *Core) blockFetchOn() {
	c.st.Mispredicts++
	c.fetchBlocked = true
	idx := (c.fqTail - 1 + len(c.fq)) % len(c.fq)
	c.fq[idx].blocksFetch = true
}
