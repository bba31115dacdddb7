package exp

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/iq"
	"repro/internal/sim"
)

// fixtureSuite builds a campaign ResultSet by hand, with arithmetic
// chosen so every derived metric has an exact expected value — no
// simulation — and passes it through FromCampaign. The default base
// configuration has 10 IQ banks and 14 int regfile banks.
func fixtureSuite(t *testing.T) *SuiteResults {
	t.Helper()
	mk := func(committed, cycles, occSum, occCycles int64) sim.Stats {
		return sim.Stats{
			CommittedReal: committed,
			Cycles:        cycles,
			IQ:            iq.Stats{OccupancySum: occSum, Cycles: occCycles},
		}
	}
	spec := campaign.DefaultSpec(1000)
	spec.Benchmarks = []string{"alpha", "beta"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	s, err := FromCampaign(&campaign.ResultSet{Spec: spec, Results: []campaign.Result{
		// alpha: baseline IPC 2.0 (1000/500), NOOP IPC 1.5 (750/500) -> 25% loss.
		//        occupancy 40 -> 30 -> 25% reduction.
		{Bench: "alpha", Tech: campaign.TechBaseline, Stats: mk(1000, 500, 20000, 500)},
		{Bench: "alpha", Tech: campaign.TechNOOP, Stats: mk(750, 500, 15000, 500)},
		// beta: baseline IPC 1.0, NOOP IPC 0.9 -> 10% loss.
		//       occupancy 60 -> 15 -> 75% reduction.
		{Bench: "beta", Tech: campaign.TechBaseline, Stats: mk(500, 500, 30000, 500)},
		{Bench: "beta", Tech: campaign.TechNOOP, Stats: mk(450, 500, 7500, 500)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runStats returns a pointer to one fixture run's statistics, to edit in place.
func runStats(s *SuiteResults, bench string, tech campaign.Technique) *sim.Stats {
	i := slices.IndexFunc(s.Campaign.Results, func(r campaign.Result) bool {
		return r.Bench == bench && r.Tech == tech
	})
	return &s.Campaign.Results[i].Stats
}

func almost(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestIPCLossPctFixture(t *testing.T) {
	s := fixtureSuite(t)
	if got := s.IPCLossPct("alpha", campaign.TechNOOP); !almost(got, 25) {
		t.Errorf("alpha loss = %f, want 25", got)
	}
	if got := s.IPCLossPct("beta", campaign.TechNOOP); !almost(got, 10) {
		t.Errorf("beta loss = %f, want 10", got)
	}
	if got := s.IPCLossPct("alpha", campaign.TechBaseline); !almost(got, 0) {
		t.Errorf("baseline self-loss = %f, want 0", got)
	}
	// Zero-IPC baseline must not divide by zero.
	*runStats(s, "alpha", campaign.TechBaseline) = sim.Stats{}
	if got := s.IPCLossPct("alpha", campaign.TechNOOP); got != 0 {
		t.Errorf("zero baseline loss = %f, want 0", got)
	}
}

func TestOccupancyReductionPctFixture(t *testing.T) {
	s := fixtureSuite(t)
	if got := s.OccupancyReductionPct("alpha", campaign.TechNOOP); !almost(got, 25) {
		t.Errorf("alpha reduction = %f, want 25", got)
	}
	if got := s.OccupancyReductionPct("beta", campaign.TechNOOP); !almost(got, 75) {
		t.Errorf("beta reduction = %f, want 75", got)
	}
	*runStats(s, "beta", campaign.TechBaseline) = sim.Stats{}
	if got := s.OccupancyReductionPct("beta", campaign.TechNOOP); got != 0 {
		t.Errorf("zero-occupancy baseline = %f, want 0", got)
	}
}

func TestMeanAndSpreadFixture(t *testing.T) {
	s := fixtureSuite(t)
	loss := func(b string) float64 { return s.IPCLossPct(b, campaign.TechNOOP) }
	if got := s.Mean(loss); !almost(got, 17.5) { // (25+10)/2
		t.Errorf("mean = %f, want 17.5", got)
	}
}

func TestBanksOffPctFixture(t *testing.T) {
	s := fixtureSuite(t)
	// 6 of 10 banks on -> 40% off.
	st := runStats(s, "alpha", campaign.TechNOOP)
	st.IQ.BanksOnSum = 3000
	st.IQ.Cycles = 500
	if got := s.BanksOffPct("alpha", campaign.TechNOOP); !almost(got, 40) {
		t.Errorf("banks off = %f, want 40", got)
	}
}

// TestFromCampaignRowsAndRefusals: rows list the spec's benchmarks, then
// any other benchmark found in the results; sweeps, a missing base
// configuration and non-paper techniques are refused.
func TestFromCampaignRowsAndRefusals(t *testing.T) {
	s := fixtureSuite(t)
	rs := s.Campaign
	rs.Results = append(rs.Results, campaign.Result{Bench: "gamma", Tech: campaign.TechBaseline})
	got, err := FromCampaign(rs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "beta", "gamma"}; !slices.Equal(got.Benchmarks, want) {
		t.Errorf("rows = %v, want %v", got.Benchmarks, want)
	}

	for name, edit := range map[string]func(*campaign.ResultSet){
		"sweeps axes": func(rs *campaign.ResultSet) {
			rs.Spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: []int{16, 80}}}
		},
		"no base configuration": func(rs *campaign.ResultSet) { rs.Spec.Base.IQ.BankSize = 0 },
		"non-paper technique": func(rs *campaign.ResultSet) {
			rs.Results = append(rs.Results, campaign.Result{Bench: "alpha", Tech: "bogus"})
		},
	} {
		bad := *fixtureSuite(t).Campaign
		edit(&bad)
		if _, err := FromCampaign(&bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}
