// Package exp renders the paper's evaluation (section 5): tables 1 and 2
// and figures 6-12, from a campaign result set. See README "Architecture
// map" for where it sits.
//
// exp simulates nothing. A caller builds a campaign.Spec for the paper's
// grid, runs it on a campaign.Engine or a serve.Client, and hands the
// ResultSet to FromCampaign; a ResultSet loaded from a JSON export
// renders the same way. Every derived metric is the ResultSet's own, read
// at the base point.
package exp

import (
	"fmt"
	"slices"

	"repro/internal/campaign"
	"repro/internal/power"
	"repro/internal/stats"
)

// SuiteResults is the figure view over a base-grid campaign: its
// benchmarks in row order and the result set every metric reads.
type SuiteResults struct {
	Benchmarks []string
	Campaign   *campaign.ResultSet
}

// FromCampaign builds the figure view over a campaign result set, freshly
// simulated or loaded from a JSON export alike. The campaign must be a
// base (no-axes) grid whose techniques are the paper's. Rows list the
// spec's benchmarks first, then any other benchmark found in the results.
func FromCampaign(rs *campaign.ResultSet) (*SuiteResults, error) {
	if len(rs.Spec.Axes) > 0 {
		return nil, fmt.Errorf("exp: campaign %q sweeps axes; figures need a base grid", rs.Spec.Name)
	}
	if rs.Spec.Base.IQ.BankSize < 1 || rs.Spec.Base.IntRF.BankSize < 1 {
		return nil, fmt.Errorf("exp: campaign %q has no base configuration (truncated export?)", rs.Spec.Name)
	}
	s := &SuiteResults{Benchmarks: slices.Clone(rs.Benchmarks()), Campaign: rs}
	for _, r := range rs.Results {
		if !r.Tech.Valid() {
			return nil, fmt.Errorf("exp: campaign has non-paper technique %q", r.Tech)
		}
		if !slices.Contains(s.Benchmarks, r.Bench) {
			s.Benchmarks = append(s.Benchmarks, r.Bench)
		}
	}
	return s, nil
}

// --- derived metrics, each the campaign's own at the base point ---

// IPCLossPct returns the IPC loss of tech vs baseline for one benchmark.
func (s *SuiteResults) IPCLossPct(bench string, tech campaign.Technique) float64 {
	return s.Campaign.IPCLossPct(bench, tech, nil)
}

// OccupancyReductionPct returns the IQ occupancy reduction vs baseline.
func (s *SuiteResults) OccupancyReductionPct(bench string, tech campaign.Technique) float64 {
	return s.Campaign.OccupancyReductionPct(bench, tech, nil)
}

// Savings returns the power savings of tech vs the baseline run; a
// benchmark missing either run saves nothing.
func (s *SuiteResults) Savings(bench string, tech campaign.Technique) power.Savings {
	sv, _ := s.Campaign.Savings(bench, tech, nil)
	return sv
}

// BanksOffPct returns the fraction of IQ banks gated off under tech.
func (s *SuiteResults) BanksOffPct(bench string, tech campaign.Technique) float64 {
	r, _ := s.Campaign.Get(bench, tech, nil)
	iq := s.Campaign.Spec.Base.IQ
	return (1 - r.Stats.AvgIQBanksOn()/float64(iq.Entries/iq.BankSize)) * 100
}

// NonEmptyPct returns the paper's nonEmpty accounting bar for a benchmark.
func (s *SuiteResults) NonEmptyPct(bench string) float64 {
	base, _ := s.Campaign.Get(bench, campaign.TechBaseline, nil)
	return s.Campaign.Spec.Params.NonEmptySavings(&base.Stats)
}

// Mean returns the arithmetic mean of f over all benchmarks (the paper's
// SPECINT bar).
func (s *SuiteResults) Mean(f func(bench string) float64) float64 {
	xs := make([]float64, 0, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		xs = append(xs, f(b))
	}
	return stats.Mean(xs)
}
