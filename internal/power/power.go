// Package power converts the simulator's raw event counts into the
// normalised power-saving percentages the paper reports. Absolute Watts
// would require Wattch's technology files; every number in the paper's
// evaluation is a percentage saving relative to an uncontrolled baseline,
// so this model works in relative energy units with per-event costs whose
// proportions are calibrated to Wattch-era issue-queue breakdowns
// (wakeup CAM ≈ 55%, payload RAM ≈ 30%, selection ≈ 15% of baseline
// dynamic energy at IPC ≈ 2).
//
// Three wakeup-gating accounting schemes reproduce the paper's bars:
// the ungated baseline precharges every operand comparator of every entry
// on every broadcast (2 × 80); "nonEmpty" precharges both operands of
// valid entries only (the paper's nonEmpty bar, after Folegnani &
// González); full gating precharges only waiting operands of valid
// entries (used by every resizing technique).
//
// A product that feeds a sum is converted explicitly, float64(x*y): the
// conversion forbids the fused multiply-add an arm64 build would
// otherwise emit, so every architecture rounds alike
// (scripts/arm64_fma_check.sh guards this).
package power

import "repro/internal/sim"

// Params are the relative per-event energies.
type Params struct {
	// Issue queue dynamic. All terms are per event (Wattch-style cc3
	// accounting: idle structures are clock gated and burn no dynamic
	// power), so low-IPC programs are not dominated by a fixed per-cycle
	// term.
	IQWakeupPerOp      float64 // one operand comparator precharge+compare
	IQReadPerIssue     float64 // payload RAM read at issue
	IQWritePerDispatch float64 // payload RAM write at dispatch
	IQSelectPerIssue   float64 // selection tree work per issued instruction

	// Issue queue static (per cycle).
	IQBankLeak  float64 // per enabled bank
	IQFixedLeak float64 // non-banked leakage (selection, control)

	// Register file dynamic: access energy scales with enabled banks as
	// alpha + (1-alpha) * banksOn/banks (alpha = decoder/bus component).
	RFAccessUnit float64
	RFAlpha      float64

	// Register file static (per cycle).
	RFBankLeak  float64
	RFFixedLeak float64

	// Whole-processor shares (paper section 6: IQ 22%, int RF 11%).
	IQShareOfProcessor float64
	RFShareOfProcessor float64
}

// DefaultParams is the calibrated model.
func DefaultParams() Params {
	return Params{
		IQWakeupPerOp:      1.0,
		IQReadPerIssue:     27,
		IQWritePerDispatch: 27,
		IQSelectPerIssue:   35,
		IQBankLeak:         1.0,
		// 15% of total leakage is non-banked: fixed = 0.15/0.85 * 10 banks.
		IQFixedLeak:        1.76,
		RFAccessUnit:       1.0,
		RFAlpha:            0.2,
		RFBankLeak:         1.0,
		RFFixedLeak:        2.47, // 0.15/0.85 * 14 banks
		IQShareOfProcessor: 0.22,
		RFShareOfProcessor: 0.11,
	}
}

// GatingScheme selects which wakeup population a run is charged for.
type GatingScheme int

// Gating schemes.
const (
	// Ungated: no gating at all — the reference baseline.
	Ungated GatingScheme = iota
	// NonEmpty: empty entries gated (the paper's nonEmpty bar).
	NonEmpty
	// Gated: empty and ready operands gated (Folegnani & González;
	// used by the paper's technique and by abella).
	Gated
)

func wakeups(s *sim.Stats, g GatingScheme) int64 {
	switch g {
	case Ungated:
		return s.IQ.UngatedWakeups
	case NonEmpty:
		return s.IQ.NonEmptyWakeups
	default:
		return s.IQ.GatedWakeups
	}
}

// IQDynamic returns the issue queue's dynamic energy for a run under a
// gating scheme.
func (p Params) IQDynamic(s *sim.Stats, g GatingScheme) float64 {
	return float64(p.IQWakeupPerOp*float64(wakeups(s, g))) +
		float64(p.IQReadPerIssue*float64(s.IQ.Issues)) +
		float64(p.IQWritePerDispatch*float64(s.IQ.Dispatches)) +
		float64(p.IQSelectPerIssue*float64(s.IQ.Issues))
}

// IQStatic returns the issue queue's leakage energy. allBanksOn charges
// every bank every cycle (the non-resizing baseline cannot gate banks).
func (p Params) IQStatic(s *sim.Stats, banks int, allBanksOn bool) float64 {
	bankCycles := float64(s.IQ.BanksOnSum)
	if allBanksOn {
		bankCycles = float64(banks) * float64(s.Cycles)
	}
	return float64(p.IQBankLeak*bankCycles) + float64(p.IQFixedLeak*float64(s.Cycles))
}

// RFDynamic returns the integer register file's dynamic energy. Reads are
// charged with the banks-on population sampled at each read; writes use
// the cycle-average population. gateBanks=false models the baseline file
// that cannot disable banks (every access pays full energy).
func (p Params) RFDynamic(s *sim.Stats, banks int, gateBanks bool) float64 {
	rf := &s.IntRF
	if !gateBanks {
		return p.RFAccessUnit * float64(rf.Reads+rf.Writes)
	}
	nb := float64(banks)
	readEnergy := float64(p.RFAlpha*float64(rf.Reads)) +
		(1-p.RFAlpha)*float64(rf.BanksOnReads)/nb
	avgOn := 0.0
	if rf.Cycles > 0 {
		avgOn = float64(rf.BanksOnSum) / float64(rf.Cycles)
	}
	writeEnergy := float64((p.RFAlpha + (1-p.RFAlpha)*avgOn/nb) * float64(rf.Writes))
	return p.RFAccessUnit * (readEnergy + writeEnergy)
}

// RFStatic returns the integer register file's leakage energy.
func (p Params) RFStatic(s *sim.Stats, banks int, allBanksOn bool) float64 {
	bankCycles := float64(s.IntRF.BanksOnSum)
	if allBanksOn {
		bankCycles = float64(banks) * float64(s.Cycles)
	}
	return float64(p.RFBankLeak*bankCycles) + float64(p.RFFixedLeak*float64(s.Cycles))
}

// Savings is one technique's normalised savings versus the baseline run,
// in percent — the quantities of the paper's figures 8, 9, 11 and 12.
type Savings struct {
	IQDynamicPct float64
	IQStaticPct  float64
	RFDynamicPct float64
	RFStaticPct  float64
	// OverallDynamicPct is the whole-processor dynamic saving using the
	// paper's section 6 shares.
	OverallDynamicPct float64
}

func pct(base, tech float64) float64 {
	if base == 0 {
		return 0
	}
	return (1 - tech/base) * 100
}

// Compute returns the savings of a technique run (fully gated, banked)
// against the baseline run (ungated wakeup, all banks always on). Both
// runs must have committed the same instruction budget.
func (p Params) Compute(base, tech *sim.Stats, iqBanks, rfBanks int) Savings {
	s := Savings{
		IQDynamicPct: pct(p.IQDynamic(base, Ungated), p.IQDynamic(tech, Gated)),
		IQStaticPct:  pct(p.IQStatic(base, iqBanks, true), p.IQStatic(tech, iqBanks, false)),
		RFDynamicPct: pct(p.RFDynamic(base, rfBanks, false), p.RFDynamic(tech, rfBanks, true)),
		RFStaticPct:  pct(p.RFStatic(base, rfBanks, true), p.RFStatic(tech, rfBanks, false)),
	}
	s.OverallDynamicPct = float64(p.IQShareOfProcessor*s.IQDynamicPct) + float64(p.RFShareOfProcessor*s.RFDynamicPct)
	return s
}

// NonEmptySavings returns the paper's nonEmpty bar: the IQ dynamic saving
// of the baseline run re-accounted with empty-entry gating only.
func (p Params) NonEmptySavings(base *sim.Stats) float64 {
	return pct(p.IQDynamic(base, Ungated), p.IQDynamic(base, NonEmpty))
}
