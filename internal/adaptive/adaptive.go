// Package adaptive implements the hardware-adaptive issue-queue resizing
// baseline the paper compares against: the IqRob64 technique of Abella &
// González ("Power-aware adaptive issue queue and rename buffers", HiPC
// 2003), which the paper calls "abella". The queue is resized at bank
// granularity from periodic measurements: a bank is disabled when the
// youngest enabled bank contributes too few issues over an interval
// (the extra entries are not earning their keep), re-enabled when
// dispatch stalls against the size limit, and periodically probed upward
// to bound the performance loss. IqRob64 also caps the reorder buffer at
// 64 entries, which is enforced by the simulator via Config.ROBLimit.
package adaptive

// Config parameterises the controller.
type Config struct {
	// IntervalCycles is the measurement window.
	IntervalCycles int64
	// ShrinkThreshold: disable the youngest enabled bank when its share
	// of the interval's issues falls below this fraction.
	ShrinkThreshold float64
	// GrowStallFrac: enable a bank when size-limit dispatch stalls exceed
	// this fraction of the interval's cycles.
	GrowStallFrac float64
	// ProbeIntervals: force-enable one bank every this many intervals
	// (0 disables probing).
	ProbeIntervals int
	// MinBanks is the floor on enabled banks.
	MinBanks int
	// ROBLimit caps the reorder buffer (0 = no cap); the simulator
	// enforces it.
	ROBLimit int
}

// DefaultConfig is the tuned abella/IqRob64 configuration.
func DefaultConfig() Config {
	return Config{
		IntervalCycles:  2_000,
		ShrinkThreshold: 0.02,
		GrowStallFrac:   0.02,
		ProbeIntervals:  6,
		MinBanks:        3,
		ROBLimit:        64,
	}
}

// Controller drives bank-granular issue-queue resizing.
type Controller struct {
	cfg      Config
	banks    int
	bankSize int

	enabledBanks int
	cycleCount   int64
	issuesTotal  int64
	issuesYoung  int64
	stallCycles  int64
	intervals    int

	// Degradation bound: if the issue rate drops right after a shrink,
	// the shrink is reverted, shrinking pauses for a few intervals, and
	// the reverted level becomes a floor that decays slowly — preventing
	// a shrink/degrade/revert oscillation from parking the queue small on
	// workloads that need the full window.
	lastIssues int64
	lastShrank bool
	holdoff    int
	floorBanks int
	floorDecay int

	resizes int64
}

// New returns a controller starting with all banks enabled.
func New(cfg Config, totalBanks, bankSize int) *Controller {
	if cfg.IntervalCycles <= 0 {
		cfg.IntervalCycles = DefaultConfig().IntervalCycles
	}
	if cfg.MinBanks <= 0 {
		cfg.MinBanks = 1
	}
	if cfg.MinBanks > totalBanks {
		cfg.MinBanks = totalBanks
	}
	return &Controller{
		cfg:          cfg,
		banks:        totalBanks,
		bankSize:     bankSize,
		enabledBanks: totalBanks,
	}
}

// Limit returns the current entry limit the queue should enforce.
func (c *Controller) Limit() int { return c.enabledBanks * c.bankSize }

// EnabledBanks returns the current enabled bank count.
func (c *Controller) EnabledBanks() int { return c.enabledBanks }

// Resizes returns how many resize decisions have been taken.
func (c *Controller) Resizes() int64 { return c.resizes }

// CyclesToDecision returns how many more cycles OnCycle accounts before
// the next resize decision, the deciding cycle included.
func (c *Controller) CyclesToDecision() int64 { return c.cfg.IntervalCycles - c.cycleCount }

// OnIssue records one instruction issue; young marks issues coming from
// the youngest enabled bank's worth of entries (those that would not have
// been resident with one bank fewer).
func (c *Controller) OnIssue(young bool) {
	c.issuesTotal++
	if young {
		c.issuesYoung++
	}
}

// OnCycle advances the interval clock by n cycles; stalled reports
// whether dispatch was blocked by the size limit in each of them. It
// returns the new entry limit and whether it changed. A decision is taken
// only in the last of the n cycles, so n must not exceed
// CyclesToDecision.
func (c *Controller) OnCycle(n int64, stalled bool) (limit int, changed bool) {
	c.cycleCount += n
	if stalled {
		c.stallCycles += n
	}
	if c.cycleCount < c.cfg.IntervalCycles {
		return c.Limit(), false
	}
	// Interval boundary: decide.
	c.intervals++
	prev := c.enabledBanks
	stallFrac := float64(c.stallCycles) / float64(c.cycleCount)
	youngShare := 0.0
	if c.issuesTotal > 0 {
		youngShare = float64(c.issuesYoung) / float64(c.issuesTotal)
	}
	floor := c.cfg.MinBanks
	if c.floorBanks > floor {
		floor = c.floorBanks
	}
	shrank := false
	switch {
	case c.lastShrank && c.issuesTotal*100 < c.lastIssues*97 && c.enabledBanks < c.banks:
		// The last shrink cost more than 10% issue rate: revert it, make
		// the reverted level a floor, and hold off further shrinking
		// (the technique's performance bound).
		c.enabledBanks++
		c.holdoff = 4
		c.floorBanks = c.enabledBanks
		c.floorDecay = 40
	case stallFrac > c.cfg.GrowStallFrac && c.enabledBanks < c.banks:
		c.enabledBanks++
	case c.cfg.ProbeIntervals > 0 && c.intervals%c.cfg.ProbeIntervals == 0 && c.enabledBanks < c.banks:
		c.enabledBanks++
	case c.holdoff == 0 && c.issuesTotal > 0 && youngShare < c.cfg.ShrinkThreshold &&
		c.enabledBanks > floor:
		c.enabledBanks--
		shrank = true
	}
	if c.holdoff > 0 {
		c.holdoff--
	}
	if c.floorDecay > 0 {
		c.floorDecay--
		if c.floorDecay == 0 {
			c.floorBanks = 0
		}
	}
	c.lastShrank = shrank
	c.lastIssues = c.issuesTotal
	c.cycleCount = 0
	c.issuesTotal = 0
	c.issuesYoung = 0
	c.stallCycles = 0
	if c.enabledBanks != prev {
		c.resizes++
		return c.Limit(), true
	}
	return c.Limit(), false
}
