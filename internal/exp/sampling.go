package exp

import (
	"fmt"

	"repro/internal/campaign"
)

// Sampled reports whether the suite ran through the sampled-simulation
// engine (and therefore carries error bars).
func (s *SuiteResults) Sampled() bool {
	return s.Campaign.Spec.Sampling != nil
}

// samplingTable builds the error-bar table: per benchmark and technique,
// the sampled IPC with its confidence half-width, the window count and
// the measured fraction of the stream.
func (s *SuiteResults) samplingTable() *table {
	sp := s.Campaign.Spec.Sampling
	conf := 0.0
	cols := []string{"bench"}
	techs := []campaign.Technique{}
	for _, t := range campaign.AllTechniques() {
		for _, b := range s.Benchmarks {
			if _, ok := s.Campaign.Get(b, t, nil); ok {
				techs = append(techs, t)
				cols = append(cols, string(t))
				break
			}
		}
	}
	cols = append(cols, "windows", "sampled%")
	t := newTable("", cols...)
	for _, b := range s.Benchmarks {
		row := []string{b}
		// windows and sampled% can in principle differ per technique (a
		// cancelled cell, a future per-technique regime); report the range
		// rather than silently showing the last technique's values.
		minW, maxW := -1, -1
		minF, maxF := 0.0, 0.0
		for _, tech := range techs {
			r, ok := s.Campaign.Get(b, tech, nil)
			if !ok || r.Sampled == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f ±%.3f", r.Sampled.IPC.Mean, r.Sampled.IPC.Half))
			conf = r.Sampled.Confidence
			frac := 0.0
			if r.Sampled.TotalInsts > 0 {
				frac = 100 * float64(r.Sampled.SampledInsts) / float64(r.Sampled.TotalInsts)
			}
			if minW < 0 {
				minW, maxW = r.Sampled.Windows, r.Sampled.Windows
				minF, maxF = frac, frac
				continue
			}
			minW, maxW = min(minW, r.Sampled.Windows), max(maxW, r.Sampled.Windows)
			minF, maxF = min(minF, frac), max(maxF, frac)
		}
		row = append(row, rangeLabel(minW, maxW), rangeLabelF(minF, maxF))
		t.addRow(row...)
	}
	t.title = fmt.Sprintf("Sampled simulation: per-window IPC (mean ± %.0f%% CI half-width)\n"+
		"regime: window %d / period %d / warmup %d (+%d detailed fill) instructions",
		100*conf, sp.Window, sp.Period, sp.Warmup, sp.DetailWarmup)
	t.addNote("Stats above are population-extrapolated totals; intervals estimate per-window dispersion.")
	return t
}

// rangeLabel renders an int range, collapsing equal endpoints.
func rangeLabel(lo, hi int) string {
	if lo < 0 {
		return "-"
	}
	if lo == hi {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// rangeLabelF renders a percentage range, collapsing equal endpoints.
func rangeLabelF(lo, hi float64) string {
	if lo == hi {
		return fmt.Sprintf("%.1f", lo)
	}
	return fmt.Sprintf("%.1f-%.1f", lo, hi)
}

// SamplingReport renders the error-bar table for a sampled suite; for an
// exact suite it returns the empty string.
func SamplingReport(s *SuiteResults) string {
	if !s.Sampled() {
		return ""
	}
	return s.samplingTable().String()
}

// SamplingReportCSV is SamplingReport in CSV form.
func SamplingReportCSV(s *SuiteResults) string {
	if !s.Sampled() {
		return ""
	}
	return s.samplingTable().CSV()
}
