// Package exp is the experiment harness: it prepares each benchmark under
// each technique, runs the timing simulator, applies the power model, and
// regenerates every table and figure of the paper's evaluation (section
// 5). See DESIGN.md section 4 for the experiment index.
//
// Execution is delegated to the campaign engine (internal/campaign):
// RunSuite builds a campaign spec for the paper's grid and SuiteResults
// is a thin view over the engine's ResultSet, so the harness inherits
// parallelism, cancellation and on-disk result caching.
package exp

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Technique identifies one experimental configuration.
type Technique int

// Techniques, in the paper's naming.
const (
	// TechBaseline: uncontrolled 80-entry queue (the reference).
	TechBaseline Technique = iota
	// TechNOOP: compiler hints via special NOOPs (section 5.2).
	TechNOOP
	// TechExtension: compiler hints via instruction tags (section 5.3).
	TechExtension
	// TechImproved: tags plus inter-procedural FU contention analysis.
	TechImproved
	// TechAbella: hardware-adaptive IqRob64 (Abella & González).
	TechAbella
	numTechniques
)

// String returns the paper's name for the technique.
func (t Technique) String() string {
	switch t {
	case TechBaseline:
		return "baseline"
	case TechNOOP:
		return "NOOP"
	case TechExtension:
		return "Extension"
	case TechImproved:
		return "Improved"
	case TechAbella:
		return "abella"
	default:
		return fmt.Sprintf("tech?%d", int(t))
	}
}

// Campaign returns the campaign engine's name for the technique.
func (t Technique) Campaign() campaign.Technique {
	return campaign.Technique(t.String())
}

// techniqueOf inverts Campaign; ok is false for unknown names.
func techniqueOf(ct campaign.Technique) (Technique, bool) {
	for t := TechBaseline; t < numTechniques; t++ {
		if t.Campaign() == ct {
			return t, true
		}
	}
	return 0, false
}

// AllTechniques lists every technique including the baseline.
func AllTechniques() []Technique {
	return []Technique{TechBaseline, TechNOOP, TechExtension, TechImproved, TechAbella}
}

// RunResult is one (benchmark, technique) run.
type RunResult struct {
	Bench     string
	Tech      Technique
	Stats     sim.Stats
	CompileMS float64 // instrumentation/analysis wall time
	GenMS     float64 // program generation+link wall time ("baseline" compile)
	Hints     int     // static hints materialised
	// Sampled carries the error bars of a sampled run (nil for exact):
	// Stats then holds population-extrapolated totals.
	Sampled *campaign.SampledMeta
}

// Runner executes the evaluation.
type Runner struct {
	Budget     int64 // committed real instructions per run
	Seed       int64
	Params     power.Params
	Config     sim.Config // base configuration; technique fields overridden
	Parallel   int        // worker count; 0 = GOMAXPROCS
	CacheDir   string     // on-disk result cache; "" = no caching
	CkptDir    string     // checkpoint artifact store; "" = warm from scratch
	Benchmarks []string   // benchmark subset; empty = full suite
	// Sampling runs the suite through the sampled-simulation engine
	// (nil = exact). Results then carry error bars; see SamplingReport.
	// Locally, sampled cells that share a warming identity always run as
	// one lockstep unit (Engine.Lockstep).
	Sampling *campaign.Sampling
	// Client, when non-nil, executes campaigns on a sdiqd campaign
	// service instead of the local engine: every experiment and sweep
	// transparently becomes a POST + event stream + export fetch,
	// sharing the server's cache and in-flight dedup with every other
	// client. Parallel and CacheDir then configure nothing (the server
	// owns both).
	Client *serve.Client
}

// NewRunner returns a runner with the paper's configuration.
func NewRunner(budget int64) *Runner {
	return &Runner{
		Budget: budget,
		Seed:   42,
		Params: power.DefaultParams(),
		Config: sim.DefaultConfig(),
	}
}

// Spec builds the campaign specification for the runner's grid under the
// given techniques.
func (r *Runner) Spec(techs []Technique) campaign.Spec {
	cts := make([]campaign.Technique, len(techs))
	for i, t := range techs {
		cts[i] = t.Campaign()
	}
	return campaign.Spec{
		Name:       "paper-evaluation",
		Benchmarks: r.Benchmarks,
		Techniques: cts,
		Budget:     r.Budget,
		Seed:       r.Seed,
		Base:       r.Config,
		Params:     r.Params,
		Sampling:   r.Sampling,
	}
}

// engine builds the campaign engine for this runner. A checkpoint
// store that fails to open degrades to warm-from-scratch execution.
func (r *Runner) engine() *campaign.Engine {
	store, _ := ckpt.Open(r.CkptDir)
	return &campaign.Engine{Workers: r.Parallel, CacheDir: r.CacheDir, Ckpt: store, Lockstep: true}
}

// RunCampaign executes an arbitrary campaign spec the way this runner
// is configured: on the local engine, or — with Client set — on a
// campaign service, returning the server's result set. This is the one
// execution path of every CLI experiment and sweep.
func (r *Runner) RunCampaign(ctx context.Context, spec campaign.Spec) (*campaign.ResultSet, error) {
	if r.Client != nil {
		return r.Client.Run(ctx, spec)
	}
	return r.engine().Run(ctx, spec)
}

// runResultOf converts an engine result into the harness view.
func runResultOf(cr campaign.Result) RunResult {
	t, _ := techniqueOf(cr.Tech)
	return RunResult{
		Bench:     cr.Bench,
		Tech:      t,
		Stats:     cr.Stats,
		CompileMS: cr.CompileMS,
		GenMS:     cr.GenMS,
		Hints:     cr.Hints,
		Sampled:   cr.Sampled,
	}
}

// SuiteResults holds every run of the evaluation, indexed by benchmark
// name and technique — the harness view over a campaign ResultSet.
type SuiteResults struct {
	Benchmarks []string
	Results    map[string]map[Technique]RunResult
	Params     power.Params
	IQBanks    int
	RFBanks    int
	// Campaign is the underlying result set (export, cache statistics).
	Campaign *campaign.ResultSet
}

// RunSuite runs all benchmarks under the given techniques in parallel.
func (r *Runner) RunSuite(techs []Technique) (*SuiteResults, error) {
	return r.RunSuiteContext(context.Background(), techs)
}

// RunSuiteContext is RunSuite with cancellation: cancelling ctx stops
// the campaign at job granularity. On a job failure the engine cancels
// the rest of the grid and the joined error of every failure observed is
// returned.
func (r *Runner) RunSuiteContext(ctx context.Context, techs []Technique) (*SuiteResults, error) {
	rs, err := r.RunCampaign(ctx, r.Spec(techs))
	if err != nil {
		return nil, err
	}
	return FromCampaign(rs)
}

// FromCampaign builds the harness view over a campaign result set — the
// bridge that lets figures render from a freshly-simulated campaign or
// one loaded from a JSON export alike. The campaign must be a base
// (no-axes) grid whose techniques are the paper's.
func FromCampaign(rs *campaign.ResultSet) (*SuiteResults, error) {
	if len(rs.Spec.Axes) > 0 {
		return nil, fmt.Errorf("exp: campaign %q sweeps axes; figures need a base grid", rs.Spec.Name)
	}
	if rs.Spec.Base.IQ.BankSize < 1 || rs.Spec.Base.IntRF.BankSize < 1 {
		return nil, fmt.Errorf("exp: campaign %q has no base configuration (truncated export?)", rs.Spec.Name)
	}
	out := &SuiteResults{
		Results:  map[string]map[Technique]RunResult{},
		Params:   rs.Spec.Params,
		IQBanks:  rs.Spec.Base.IQ.Entries / rs.Spec.Base.IQ.BankSize,
		RFBanks:  rs.Spec.Base.IntRF.Regs / rs.Spec.Base.IntRF.BankSize,
		Campaign: rs,
	}
	for _, b := range rs.Benchmarks() {
		out.Benchmarks = append(out.Benchmarks, b)
		out.Results[b] = map[Technique]RunResult{}
	}
	for _, cr := range rs.Results {
		t, ok := techniqueOf(cr.Tech)
		if !ok {
			return nil, fmt.Errorf("exp: campaign has non-paper technique %q", cr.Tech)
		}
		if _, ok := out.Results[cr.Bench]; !ok {
			out.Benchmarks = append(out.Benchmarks, cr.Bench)
			out.Results[cr.Bench] = map[Technique]RunResult{}
		}
		out.Results[cr.Bench][t] = runResultOf(cr)
	}
	return out, nil
}

// --- derived metrics ---

// IPCLossPct returns the IPC loss of tech vs baseline for one benchmark.
func (s *SuiteResults) IPCLossPct(bench string, tech Technique) float64 {
	base := s.Results[bench][TechBaseline].Stats
	t := s.Results[bench][tech].Stats
	if base.IPC() == 0 {
		return 0
	}
	return (1 - t.IPC()/base.IPC()) * 100
}

// OccupancyReductionPct returns the IQ occupancy reduction vs baseline.
func (s *SuiteResults) OccupancyReductionPct(bench string, tech Technique) float64 {
	base := s.Results[bench][TechBaseline].Stats
	t := s.Results[bench][tech].Stats
	if base.AvgIQOccupancy() == 0 {
		return 0
	}
	return (1 - t.AvgIQOccupancy()/base.AvgIQOccupancy()) * 100
}

// BanksOffPct returns the fraction of IQ banks gated off under tech.
func (s *SuiteResults) BanksOffPct(bench string, tech Technique) float64 {
	t := s.Results[bench][tech].Stats
	return (1 - t.AvgIQBanksOn()/float64(s.IQBanks)) * 100
}

// Savings returns the power savings of tech vs the baseline run.
func (s *SuiteResults) Savings(bench string, tech Technique) power.Savings {
	base := s.Results[bench][TechBaseline].Stats
	t := s.Results[bench][tech].Stats
	return s.Params.Compute(&base, &t, s.IQBanks, s.RFBanks)
}

// NonEmptyPct returns the paper's nonEmpty accounting bar for a benchmark.
func (s *SuiteResults) NonEmptyPct(bench string) float64 {
	base := s.Results[bench][TechBaseline].Stats
	return s.Params.NonEmptySavings(&base)
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

// Spread returns the min, max and standard deviation of f across the
// suite — the per-benchmark variation the paper's bar charts show.
func (s *SuiteResults) Spread(f func(bench string) float64) (min, max, stddev float64) {
	xs := make([]float64, 0, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		xs = append(xs, f(b))
	}
	min, max = stats.MinMax(xs)
	return min, max, stats.StdDev(xs)
}
