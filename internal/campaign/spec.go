package campaign

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/power"
	"repro/internal/sample"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec declares a campaign: which benchmarks to run under which
// techniques, at what instruction budget and generator seed, on what base
// processor configuration, swept along zero or more configuration axes.
// A Spec is plain data — it marshals to JSON and two equal Specs always
// expand to the same jobs in the same order.
type Spec struct {
	// Name labels the campaign in exports and logs.
	Name string `json:"name,omitempty"`
	// Benchmarks to run; empty means the full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Techniques to run; empty means all five.
	Techniques []Technique `json:"techniques,omitempty"`
	// Budget is the committed real instructions per run.
	Budget int64 `json:"budget"`
	// Seed feeds the workload generators.
	Seed int64 `json:"seed"`
	// Base is the processor configuration every job starts from; axis
	// values and the technique's control mode are applied on top.
	Base sim.Config `json:"base"`
	// Params is the power model the campaign's savings are computed with.
	// It does not affect simulation, but it is part of the cache identity
	// because exported figures depend on it.
	Params power.Params `json:"params"`
	// Axes are the configuration sweeps; the job set is the cross
	// product of all axis values.
	Axes []Axis `json:"axes,omitempty"`
	// Sampling, when non-nil, runs every job through the sampled
	// simulation engine (internal/sample) instead of exact cycle-level
	// simulation: detailed windows of Window instructions every Period
	// instructions, with functional warming between them. Results carry
	// confidence intervals (Result.Sampled) and the sampling parameters
	// are part of the job cache key — a sampled and an exact run of the
	// same cell never share a cache entry. Nil (the default) is exact
	// mode, whose results and exports are unchanged by this field.
	Sampling *Sampling `json:"sampling,omitempty"`
}

// Sampling is the campaign-level sampled-simulation regime; zero fields
// take the engine defaults (sample.DefaultConfig), and a negative
// Warmup or DetailWarmup means explicitly none. All lengths are in
// committed real instructions.
type Sampling struct {
	// Window is the measured detailed-window length.
	Window int64 `json:"window,omitempty"`
	// Period is the sampling period (one window per period).
	Period int64 `json:"period,omitempty"`
	// Warmup is the functional-warming length before each window
	// (0 = engine default, negative = none).
	Warmup int64 `json:"warmup,omitempty"`
	// DetailWarmup is the unmeasured detailed pipeline fill per window
	// (0 = engine default, negative = none).
	DetailWarmup int64 `json:"detail_warmup,omitempty"`
}

// DefaultSampling is the engine's standard regime, stated explicitly so
// it is pinned in specs, exports and cache keys rather than drifting
// with the engine default.
func DefaultSampling() Sampling {
	d := sample.DefaultConfig()
	return Sampling{
		Window:       d.WindowInsts,
		Period:       d.PeriodInsts,
		Warmup:       d.WarmupInsts,
		DetailWarmup: d.DetailWarmupInsts,
	}
}

// engineConfig converts to the sampling engine's configuration.
func (s *Sampling) engineConfig() sample.Config {
	return sample.Config{
		WindowInsts:       s.Window,
		PeriodInsts:       s.Period,
		WarmupInsts:       s.Warmup,
		DetailWarmupInsts: s.DetailWarmup,
	}
}

// Validate checks the regime via the engine's rules, on the resolved
// form the engine will actually run (zero fields filled with defaults),
// so spec validation and runtime agree.
func (s *Sampling) Validate() error {
	cfg := s.engineConfig().WithDefaults()
	return cfg.Validate()
}

// ParseSampling parses the CLI sampling syntax: "on"/"default" for the
// standard regime, "window/period/warmup" or
// "window=N,period=N,warmup=N,detailwarmup=N" for a custom one. An empty
// string means exact simulation (nil).
func ParseSampling(s string) (*Sampling, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "off") {
		return nil, nil
	}
	if strings.EqualFold(s, "on") || strings.EqualFold(s, "default") {
		d := DefaultSampling()
		return &d, nil
	}
	out := DefaultSampling()
	// A user-supplied 0 means "none", which the zero-means-default field
	// convention expresses as a negative value.
	explicitZero := func(n int64) int64 {
		if n == 0 {
			return -1
		}
		return n
	}
	if strings.Contains(s, "=") {
		for _, part := range strings.Split(s, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return nil, fmt.Errorf("campaign: bad sampling field %q (want name=N)", part)
			}
			n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("campaign: sampling %s: bad value %q", name, val)
			}
			switch strings.ToLower(strings.TrimSpace(name)) {
			case "window", "w":
				if n == 0 {
					return nil, fmt.Errorf("campaign: sampling window must be positive")
				}
				out.Window = n
			case "period", "p":
				if n == 0 {
					return nil, fmt.Errorf("campaign: sampling period must be positive")
				}
				out.Period = n
			case "warmup", "u":
				out.Warmup = explicitZero(n)
			case "detailwarmup", "dw":
				out.DetailWarmup = explicitZero(n)
			default:
				return nil, fmt.Errorf("campaign: unknown sampling field %q (window, period, warmup, detailwarmup)", name)
			}
		}
	} else {
		parts := strings.Split(s, "/")
		if len(parts) > 3 {
			return nil, fmt.Errorf("campaign: bad sampling %q (want window/period[/warmup])", s)
		}
		for i, p := range parts {
			n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
			if err != nil || n < 0 || (n == 0 && i < 2) {
				return nil, fmt.Errorf("campaign: bad sampling %q: field %d", s, i)
			}
			switch i {
			case 0:
				out.Window = n
			case 1:
				out.Period = n
			case 2:
				out.Warmup = explicitZero(n)
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}

// Axis sweeps one named configuration parameter over a list of values.
type Axis struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// AxisValue is one coordinate of a sweep point.
type AxisValue struct {
	Axis  string `json:"axis"`
	Value int    `json:"value"`
}

// Point is one assignment of every axis — the sweep coordinates of a
// job. The base (no-axes) campaign has the empty Point.
type Point []AxisValue

// String renders the point as "axis=value,axis=value" ("" for the base
// point); the form is stable and used in result keys and CSV exports.
func (p Point) String() string {
	parts := make([]string, len(p))
	for i, av := range p {
		parts[i] = fmt.Sprintf("%s=%d", av.Axis, av.Value)
	}
	return strings.Join(parts, ",")
}

// Job is one fully-resolved simulation: a benchmark prepared under a
// technique on a concrete configuration.
type Job struct {
	Bench  string
	Tech   Technique
	Point  Point
	Config sim.Config
	Budget int64
	Seed   int64
	// Sampling selects sampled simulation for this job (nil = exact).
	Sampling *Sampling
}

// ID names the job uniquely within its campaign.
func (j *Job) ID() string {
	if len(j.Point) == 0 {
		return j.Bench + "/" + string(j.Tech)
	}
	return j.Bench + "/" + string(j.Tech) + "/" + j.Point.String()
}

// axisSetters maps axis names to configuration fields. Names are
// lower-case dotted paths mirroring the sim.Config structure.
var axisSetters = map[string]func(*sim.Config, int){
	"iq.entries":     func(c *sim.Config, v int) { c.IQ.Entries = v },
	"iq.banksize":    func(c *sim.Config, v int) { c.IQ.BankSize = v },
	"intrf.regs":     func(c *sim.Config, v int) { c.IntRF.Regs = v },
	"intrf.banksize": func(c *sim.Config, v int) { c.IntRF.BankSize = v },
	"fetchwidth":     func(c *sim.Config, v int) { c.FetchWidth = v },
	"dispatchwidth":  func(c *sim.Config, v int) { c.DispatchWidth = v },
	"issuewidth":     func(c *sim.Config, v int) { c.IssueWidth = v },
	"commitwidth":    func(c *sim.Config, v int) { c.CommitWidth = v },
	"robsize":        func(c *sim.Config, v int) { c.ROBSize = v },
	"lsqsize":        func(c *sim.Config, v int) { c.LSQSize = v },
	"fetchqueuesize": func(c *sim.Config, v int) { c.FetchQueueSize = v },
	"memports":       func(c *sim.Config, v int) { c.MemPorts = v },
}

// AxisNames lists the sweepable configuration axes, sorted.
func AxisNames() []string {
	names := make([]string, 0, len(axisSetters))
	for n := range axisSetters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultSpec is the paper's evaluation: full suite, all techniques,
// table-1 configuration, calibrated power model.
func DefaultSpec(budget int64) Spec {
	return Spec{
		Name:   "paper-evaluation",
		Budget: budget,
		Seed:   42,
		Base:   sim.DefaultConfig(),
		Params: power.DefaultParams(),
	}
}

// benchmarks resolves the benchmark list (empty = full suite). Unknown
// names are kept: they fail at execution time so the engine's error path
// reports them per-job.
func (s *Spec) benchmarks() []string {
	if len(s.Benchmarks) > 0 {
		return s.Benchmarks
	}
	names := []string{}
	for _, b := range workload.Suite() {
		names = append(names, b.Name)
	}
	return names
}

// techniques resolves the technique list (empty = all).
func (s *Spec) techniques() []Technique {
	if len(s.Techniques) > 0 {
		return s.Techniques
	}
	return AllTechniques()
}

// Validate checks the spec's static structure: techniques and axis names
// must be known and axis value lists non-empty.
func (s *Spec) Validate() error {
	for _, t := range s.techniques() {
		if !t.Valid() {
			return fmt.Errorf("campaign: unknown technique %q", t)
		}
	}
	for _, ax := range s.Axes {
		if _, ok := axisSetters[ax.Name]; !ok {
			return fmt.Errorf("campaign: unknown axis %q (known: %s)",
				ax.Name, strings.Join(AxisNames(), ", "))
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("campaign: axis %q has no values", ax.Name)
		}
	}
	if s.Budget < 0 {
		return fmt.Errorf("campaign: negative budget %d", s.Budget)
	}
	if s.Sampling != nil {
		if err := s.Sampling.Validate(); err != nil {
			return err
		}
		if s.Budget == 0 {
			return fmt.Errorf("campaign: sampled campaigns need a positive budget")
		}
	}
	return nil
}

// Points expands the axes into their cross product, in axis order with
// the last axis varying fastest. No axes yields the single base point.
func (s *Spec) Points() []Point {
	points := []Point{nil}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				np := make(Point, len(p), len(p)+1)
				copy(np, p)
				np = append(np, AxisValue{Axis: ax.Name, Value: v})
				next = append(next, np)
			}
		}
		points = next
	}
	return points
}

// JobCount validates the spec and returns the number of jobs Jobs
// expands it to, points × benchmarks × techniques, from the list
// lengths alone: nothing grows with the count, so a service can bound a
// campaign before expanding it. A product that overflows int is an
// error. Jobs can still refuse a spec JobCount accepts, at a point
// whose issue queue is not a multiple of its bank size.
func (s *Spec) JobCount() (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	n := len(s.benchmarks())
	factors := []int{len(s.techniques())}
	for _, ax := range s.Axes {
		factors = append(factors, len(ax.Values))
	}
	for _, k := range factors {
		if n > math.MaxInt/k {
			return 0, fmt.Errorf("campaign: the job count overflows (%d axes)", len(s.Axes))
		}
		n *= k
	}
	return n, nil
}

// Jobs expands the spec into its job set: points × benchmarks ×
// techniques, in that nesting order. The order is deterministic and is
// the order of ResultSet.Results.
func (s *Spec) Jobs() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var jobs []Job
	for _, pt := range s.Points() {
		cfg, err := s.configAt(pt)
		if err != nil {
			return nil, err
		}
		for _, bench := range s.benchmarks() {
			for _, tech := range s.techniques() {
				jc := cfg
				jc.Control = tech.controlMode()
				jobs = append(jobs, Job{
					Bench:    bench,
					Tech:     tech,
					Point:    pt,
					Config:   jc,
					Budget:   s.Budget,
					Seed:     s.Seed,
					Sampling: s.Sampling,
				})
			}
		}
	}
	return jobs, nil
}

// configAt applies a sweep point to the base configuration.
func (s *Spec) configAt(pt Point) (sim.Config, error) {
	cfg := s.Base
	cfg.Probe = nil // probes are per-run attachments, never part of a spec
	for _, av := range pt {
		set, ok := axisSetters[av.Axis]
		if !ok {
			return sim.Config{}, fmt.Errorf("campaign: unknown axis %q", av.Axis)
		}
		set(&cfg, av.Value)
	}
	if cfg.IQ.Entries < 1 || cfg.IQ.BankSize < 1 || cfg.IQ.Entries%cfg.IQ.BankSize != 0 {
		return sim.Config{}, fmt.Errorf("campaign: point %q: issue queue (%d entries, bank %d) must be a positive multiple of its bank size",
			pt, cfg.IQ.Entries, cfg.IQ.BankSize)
	}
	return cfg, nil
}

// controlMode maps a technique to the simulator's issue-queue control.
func (t Technique) controlMode() sim.ControlMode {
	switch t {
	case TechNOOP, TechExtension, TechImproved:
		return sim.ControlHints
	case TechAbella:
		return sim.ControlAdaptive
	default:
		return sim.ControlNone
	}
}

// ParseAxes parses the CLI sweep syntax: semicolon-separated axes, each
// "name=v1,v2,...", e.g. "iq.entries=16,32,48,64,80;fetchwidth=4,8".
func ParseAxes(s string) ([]Axis, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var axes []Axis
	for _, part := range strings.Split(s, ";") {
		name, vals, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("campaign: bad axis %q (want name=v1,v2,...)", part)
		}
		ax := Axis{Name: strings.ToLower(strings.TrimSpace(name))}
		for _, v := range strings.Split(vals, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return nil, fmt.Errorf("campaign: axis %s: bad value %q", ax.Name, v)
			}
			ax.Values = append(ax.Values, n)
		}
		axes = append(axes, ax)
	}
	return axes, nil
}
