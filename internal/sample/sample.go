// Package sample is the sampled-simulation engine: a SMARTS-style
// harness that trades tightly bounded statistical accuracy for a large
// wall-clock speedup over exact cycle-level simulation.
//
// An exact run feeds every committed instruction through the detailed
// out-of-order core (internal/sim), which is ~14x slower than the
// functional emulator (internal/emu). A sampled run instead alternates
// three phases over one continuous emulator stream:
//
//   - fast-forward: the emulator advances architectural state only
//     (registers, memory, control flow) at full functional speed;
//   - functional warming: the emulator still advances at near-functional
//     speed, but every instruction also drives the update-only paths of
//     the cache hierarchy and branch predictor (cache.Hierarchy.Warm*,
//     bpred.Predictor.TrainCond and friends), so long-lived
//     microarchitectural state is hot when detailed simulation resumes;
//   - detailed window: the cell's sim.Core is reset over the warmed
//     hierarchy and predictor (sim.(*Core).Reset, which leaves it as
//     sim.NewResumable would build it) and consumes the next
//     instructions of the stream — first an unmeasured pipeline warm-up
//     segment that fills the ROB, queues and in-flight machinery, then
//     the measured unit whose sim.Stats are recorded.
//
// Per-window statistics are accumulated into population-extrapolated
// totals (every counter scaled by total/sampled instructions) and
// per-metric confidence intervals (internal/stats.MeanCI), so a sampled
// Report plugs into the power model and the campaign exporters exactly
// like an exact run, with error bars attached.
//
// Every detailed window executes on a fork of the stream state at its
// start — a fresh emulator restored from an architectural checkpoint
// plus a copy of the warmed hierarchy and predictor, made into storage
// reused from window to window — while the main
// stream re-executes the window's region functionally. The warm state
// at every window start is therefore a pure function of the stream
// position and the sampling regime, never of the cell's detailed
// configuration, which is what lets a checkpoint store (internal/ckpt)
// share one artifact across an entire sweep grid: RunLockstepStored
// resumes windows directly from stored state, bit-identical to a
// warm-from-scratch run.
package sample

import (
	"fmt"
)

// Config sets the sampling regime, in committed real (non-hint)
// instructions. Each period of PeriodInsts consists of WarmupInsts of
// functional warming, a detailed window of DetailWarmupInsts (unmeasured
// pipeline fill) plus WindowInsts (measured), and fast-forward for the
// remainder.
type Config struct {
	// WindowInsts is the measured detailed-window length.
	WindowInsts int64
	// PeriodInsts is the sampling period: one window per period.
	PeriodInsts int64
	// WarmupInsts is the functional-warming length before each window.
	// Zero means the default; negative means explicitly none.
	WarmupInsts int64
	// DetailWarmupInsts is the unmeasured detailed prefix of each window
	// that refills the pipeline before measurement starts. Zero means the
	// default; negative means explicitly none.
	DetailWarmupInsts int64
}

// confidence is the level of every per-metric interval a Report carries.
const confidence = 0.95

// JitterPct randomises each period's fast-forward gap by up to ±this
// percentage, drawn from a deterministic per-run generator, so windows
// cannot alias with loop periodicity in the workload (the
// systematic-sampling failure mode SMARTS § 3 warns about). The
// expected period — and therefore the detailed fraction and the cache
// identity of a campaign job — is unchanged.
const JitterPct = 25

// DefaultConfig is the standard regime: 1k-instruction measured windows
// every 60k instructions, preceded by 2k of functional warming and 2k of
// detailed pipeline fill, with ±JitterPct period jitter — a 5% detailed
// fraction that lands the standard three-benchmark sweep at ~5-6x over
// exact with well under 1% mean IPC error at a 2M budget (see README
// "Sampling"). Budgets under ~1M instructions yield few windows and
// proportionally wider confidence intervals; check Report.IPC.Half.
func DefaultConfig() Config {
	return Config{
		WindowInsts:       1_000,
		PeriodInsts:       60_000,
		WarmupInsts:       2_000,
		DetailWarmupInsts: 2_000,
	}
}

// WithDefaults resolves the regime Run will actually execute: zero
// fields take DefaultConfig values; a negative WarmupInsts or
// DetailWarmupInsts means explicitly none and resolves to 0. Validate
// the resolved config, not the raw one — Run does.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.WindowInsts == 0 {
		c.WindowInsts = d.WindowInsts
	}
	if c.PeriodInsts == 0 {
		c.PeriodInsts = d.PeriodInsts
	}
	if c.WarmupInsts == 0 {
		c.WarmupInsts = d.WarmupInsts
	}
	if c.WarmupInsts < 0 {
		c.WarmupInsts = 0 // explicit "no functional warming"
	}
	if c.DetailWarmupInsts == 0 {
		c.DetailWarmupInsts = d.DetailWarmupInsts
	}
	if c.DetailWarmupInsts < 0 {
		c.DetailWarmupInsts = 0 // explicit "no pipeline fill"
	}
	return c
}

// Validate checks the regime's arithmetic. Call it on the resolved
// regime (WithDefaults); Run validates the resolved form itself.
func (c *Config) Validate() error {
	if c.WindowInsts <= 0 {
		return fmt.Errorf("sample: window must be positive, got %d", c.WindowInsts)
	}
	if min := c.WarmupInsts + c.DetailWarmupInsts + c.WindowInsts; c.PeriodInsts < min {
		return fmt.Errorf("sample: period %d shorter than warmup+window %d",
			c.PeriodInsts, min)
	}
	return nil
}

// DetailedFraction returns the fraction of instructions that run through
// the detailed core (including the unmeasured pipeline fill) — the
// first-order determinant of the speedup over exact simulation.
func (c *Config) DetailedFraction() float64 {
	cc := c.WithDefaults()
	return float64(cc.DetailWarmupInsts+cc.WindowInsts) / float64(cc.PeriodInsts)
}
