// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md section 4 for the index), plus ablation
// benches for the design choices and microbenchmarks of the substrate.
//
// Figure benches run a reduced-budget version of the corresponding
// experiment and report the headline quantities as custom metrics (the
// paper's values appear in the metric names' documentation in
// EXPERIMENTS.md); regenerate the full-budget numbers with
// `go run ./cmd/sdiq -experiment all`.
package repro

import (
	"context"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/workload"
)

func mustEmu(b *testing.B, p *prog.Program) *emu.Emulator {
	b.Helper()
	e, err := emu.New(p)
	if err != nil {
		b.Fatal(err)
	}
	e.Restart = true
	return e
}

// benchBudget keeps per-iteration cost manageable; shapes are stable from
// ~50k instructions per run.
const benchBudget = 50_000

func runSuite(b *testing.B, techs []exp.Technique) *exp.SuiteResults {
	b.Helper()
	r := exp.NewRunner(benchBudget)
	s, err := r.RunSuite(techs)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1Config exercises configuration construction and
// rendering (paper table 1).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(exp.Table1(sim.DefaultConfig())) < 100 {
			b.Fatal("table 1 rendering broken")
		}
	}
}

// BenchmarkTable2CompileTime measures the analysis pass on the slowest
// benchmark, gcc (paper table 2: gcc dominated compile time).
func BenchmarkTable2CompileTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := workload.Gcc(42)
		b.StartTimer()
		if _, err := core.Instrument(p, core.Options{Mode: core.ModeNOOP}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6IPCLoss regenerates figure 6: IPC loss of the NOOP
// technique vs the abella hardware baseline.
func BenchmarkFigure6IPCLoss(b *testing.B) {
	var noop, abella float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechNOOP, exp.TechAbella})
		noop = s.Mean(func(bn string) float64 { return s.IPCLossPct(bn, exp.TechNOOP) })
		abella = s.Mean(func(bn string) float64 { return s.IPCLossPct(bn, exp.TechAbella) })
	}
	b.ReportMetric(noop, "NOOPloss%")     // paper: 2.2
	b.ReportMetric(abella, "abellaloss%") // paper: 3.1
}

// BenchmarkFigure7Occupancy regenerates figure 7: IQ occupancy reduction
// and the banks-off fractions of section 5.2.2.
func BenchmarkFigure7Occupancy(b *testing.B) {
	var occ, banksOff float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechNOOP})
		occ = s.Mean(func(bn string) float64 { return s.OccupancyReductionPct(bn, exp.TechNOOP) })
		banksOff = s.Mean(func(bn string) float64 { return s.BanksOffPct(bn, exp.TechNOOP) })
	}
	b.ReportMetric(occ, "occRed%")        // paper: 23
	b.ReportMetric(banksOff, "banksOff%") // paper: 37
}

// BenchmarkFigure8IQPower regenerates figure 8: IQ dynamic and static
// power savings with the nonEmpty and abella bars.
func BenchmarkFigure8IQPower(b *testing.B) {
	var dyn, stat, nonEmpty, abella float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechNOOP, exp.TechAbella})
		dyn = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechNOOP).IQDynamicPct })
		stat = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechNOOP).IQStaticPct })
		nonEmpty = s.Mean(s.NonEmptyPct)
		abella = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechAbella).IQDynamicPct })
	}
	b.ReportMetric(dyn, "dyn%")           // paper: 47
	b.ReportMetric(stat, "static%")       // paper: 31
	b.ReportMetric(nonEmpty, "nonEmpty%") // paper: lower than dyn
	b.ReportMetric(abella, "abellaDyn%")  // paper: 39
}

// BenchmarkFigure9RegfilePower regenerates figure 9: integer register
// file savings.
func BenchmarkFigure9RegfilePower(b *testing.B) {
	var dyn, stat float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechNOOP})
		dyn = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechNOOP).RFDynamicPct })
		stat = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechNOOP).RFStaticPct })
	}
	b.ReportMetric(dyn, "dyn%")     // paper: 22
	b.ReportMetric(stat, "static%") // paper: 21
}

// BenchmarkFigure10Extensions regenerates figure 10: IPC loss of the
// Extension (tagging) and Improved (inter-procedural) techniques.
func BenchmarkFigure10Extensions(b *testing.B) {
	var ext, imp float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechExtension, exp.TechImproved})
		ext = s.Mean(func(bn string) float64 { return s.IPCLossPct(bn, exp.TechExtension) })
		imp = s.Mean(func(bn string) float64 { return s.IPCLossPct(bn, exp.TechImproved) })
	}
	b.ReportMetric(ext, "extLoss%") // paper: 1.7
	b.ReportMetric(imp, "impLoss%") // paper: <1.3
}

// BenchmarkFigure11ExtIQPower regenerates figure 11: IQ savings under
// Extension/Improved plus the section-6 overall processor saving.
func BenchmarkFigure11ExtIQPower(b *testing.B) {
	var dyn, stat, overall float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechExtension, exp.TechImproved})
		dyn = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechExtension).IQDynamicPct })
		stat = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechExtension).IQStaticPct })
		overall = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechImproved).OverallDynamicPct })
	}
	b.ReportMetric(dyn, "dyn%")         // paper: 45
	b.ReportMetric(stat, "static%")     // paper: 30
	b.ReportMetric(overall, "overall%") // paper: ~11
}

// BenchmarkFigure12ExtRegfile regenerates figure 12: regfile savings
// under Extension/Improved.
func BenchmarkFigure12ExtRegfile(b *testing.B) {
	var dyn, stat float64
	for i := 0; i < b.N; i++ {
		s := runSuite(b, []exp.Technique{exp.TechBaseline, exp.TechExtension})
		dyn = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechExtension).RFDynamicPct })
		stat = s.Mean(func(bn string) float64 { return s.Savings(bn, exp.TechExtension).RFStaticPct })
	}
	b.ReportMetric(dyn, "dyn%")     // paper: 21
	b.ReportMetric(stat, "static%") // paper: 21
}

// --- ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationHintMode compares NOOP insertion against tagging on
// the call-dense benchmark most sensitive to dispatch slots.
func BenchmarkAblationHintMode(b *testing.B) {
	r := exp.NewRunner(benchBudget)
	r.Benchmarks = []string{"perlbmk"}
	var noopIPC, tagIPC float64
	for i := 0; i < b.N; i++ {
		s, err := r.RunSuite([]exp.Technique{exp.TechNOOP, exp.TechExtension})
		if err != nil {
			b.Fatal(err)
		}
		rn, rt := s.Results["perlbmk"][exp.TechNOOP], s.Results["perlbmk"][exp.TechExtension]
		noopIPC, tagIPC = rn.Stats.IPC(), rt.Stats.IPC()
	}
	b.ReportMetric(noopIPC, "noopIPC")
	b.ReportMetric(tagIPC, "tagIPC")
}

// BenchmarkAblationGatingOnly isolates the Folegnani-style wakeup gating
// from the resizing: the baseline run accounted under each scheme.
func BenchmarkAblationGatingOnly(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	params := power.DefaultParams()
	var ungated, nonEmpty, gated float64
	for i := 0; i < b.N; i++ {
		st, err := sim.RunProgram(sim.DefaultConfig(), bench.Build(42), benchBudget)
		if err != nil {
			b.Fatal(err)
		}
		ungated = params.IQDynamic(&st, power.Ungated)
		nonEmpty = params.IQDynamic(&st, power.NonEmpty)
		gated = params.IQDynamic(&st, power.Gated)
	}
	b.ReportMetric(100*(1-nonEmpty/ungated), "nonEmptySave%")
	b.ReportMetric(100*(1-gated/ungated), "fullGateSave%")
}

// BenchmarkAblationBankSize sweeps the issue-queue bank granularity,
// which trades gating opportunity against control overhead.
func BenchmarkAblationBankSize(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	for _, bankSize := range []int{4, 8, 16} {
		bankSize := bankSize
		b.Run(map[int]string{4: "bank4", 8: "bank8", 16: "bank16"}[bankSize], func(b *testing.B) {
			var banksOff float64
			for i := 0; i < b.N; i++ {
				p := bench.Build(42)
				if _, err := core.Instrument(p, core.Options{Mode: core.ModeTag}); err != nil {
					b.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.IQ.BankSize = bankSize
				cfg.Control = sim.ControlHints
				st, err := sim.RunProgram(cfg, p, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				banksOff = 100 * (1 - st.AvgIQBanksOn()/float64(cfg.IQ.Entries/bankSize))
			}
			b.ReportMetric(banksOff, "banksOff%")
		})
	}
}

// BenchmarkAblationDispatchSlack sweeps the hint slack (EXPERIMENTS.md
// D4): zero slack maximises occupancy savings but bounces dispatch at
// region boundaries; a full dispatch group erases losses and savings
// alike.
func BenchmarkAblationDispatchSlack(b *testing.B) {
	bench, _ := workload.ByName("perlbmk")
	for _, slack := range []int{-1, 4, 8} {
		slack := slack
		name := map[int]string{-1: "slack0", 4: "slack4", 8: "slack8"}[slack]
		b.Run(name, func(b *testing.B) {
			var ipc, occ float64
			for i := 0; i < b.N; i++ {
				p := bench.Build(42)
				opt := core.Options{Mode: core.ModeNOOP, DispatchSlack: slack}
				if _, err := core.Instrument(p, opt); err != nil {
					b.Fatal(err)
				}
				cfg := sim.DefaultConfig()
				cfg.Control = sim.ControlHints
				st, err := sim.RunProgram(cfg, p, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				ipc, occ = st.IPC(), st.AvgIQOccupancy()
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(occ, "occupancy")
		})
	}
}

// BenchmarkAblationCollapsibleQueue compares the paper's non-collapsible
// queue (holes waste capacity) against a compacting queue (section 3.1
// argues compaction costs energy; this quantifies the IPC it would buy).
func BenchmarkAblationCollapsibleQueue(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	for _, collapsible := range []bool{false, true} {
		collapsible := collapsible
		name := map[bool]string{false: "nonCollapsible", true: "collapsible"}[collapsible]
		b.Run(name, func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.IQ.Collapsible = collapsible
				st, err := sim.RunProgram(cfg, bench.Build(42), benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				ipc = st.IPC()
			}
			b.ReportMetric(ipc, "IPC")
		})
	}
}

// BenchmarkAblationAdaptiveVariant compares the IqRob64 abella baseline
// against the older Folegnani-González IQ-only resizing it derives from.
func BenchmarkAblationAdaptiveVariant(b *testing.B) {
	bench, _ := workload.ByName("twolf")
	configs := map[string]func(*sim.Config){
		"iqrob64":   func(c *sim.Config) {},
		"folegnani": func(c *sim.Config) { c.Adaptive = adaptive.FolegnaniConfig() },
	}
	for name, tweak := range configs {
		tweak := tweak
		b.Run(name, func(b *testing.B) {
			var ipc, occ float64
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig()
				cfg.Control = sim.ControlAdaptive
				tweak(&cfg)
				st, err := sim.RunProgram(cfg, bench.Build(42), benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				ipc, occ = st.IPC(), st.AvgIQOccupancy()
			}
			b.ReportMetric(ipc, "IPC")
			b.ReportMetric(occ, "occupancy")
		})
	}
}

// --- substrate microbenchmarks ---

// BenchmarkSimulatorThroughput measures timing-simulation speed in
// instructions per second on a representative workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, _ := workload.ByName("gzip")
	p := bench.Build(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunProgram(sim.DefaultConfig(), p, 100_000); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(100_000) // bytes stand in for instructions: B/s = inst/s
}

// BenchmarkEmulatorThroughput measures functional-emulation speed.
func BenchmarkEmulatorThroughput(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	p := bench.Build(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := mustEmu(b, p)
		b.StartTimer()
		for n := 0; n < 100_000; n++ {
			if _, ok := e.Next(); !ok {
				b.Fatal("halted")
			}
		}
	}
	b.SetBytes(100_000)
}

// BenchmarkEmulatorDecodeCache measures the decoded-dispatch emulator
// path explicitly (the default; EmulatorThroughput tracks the same path
// for trajectory continuity). The ratio EmulatorUncached/
// EmulatorDecodeCache is the decode cache's realised speedup.
func BenchmarkEmulatorDecodeCache(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	p := bench.Build(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := mustEmu(b, p)
		e.SetDecode(true)
		b.StartTimer()
		for n := 0; n < 100_000; n++ {
			if _, ok := e.Next(); !ok {
				b.Fatal("halted")
			}
		}
	}
	b.SetBytes(100_000)
}

// BenchmarkEmulatorUncached measures the reference interpreter — the
// per-instruction re-decode path the decode cache replaces.
func BenchmarkEmulatorUncached(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	p := bench.Build(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := mustEmu(b, p)
		e.SetDecode(false)
		b.StartTimer()
		for n := 0; n < 100_000; n++ {
			if _, ok := e.Next(); !ok {
				b.Fatal("halted")
			}
		}
	}
	b.SetBytes(100_000)
}

// BenchmarkSampledCampaign measures end-to-end sampled-campaign
// throughput on the standard three-benchmark sweep — the quantity the
// sampled-simulation engine exists to raise. Compare against
// SimulatorThroughput for the realised speedup (inst/s here are
// campaign instructions per wall second, all phases included).
func BenchmarkSampledCampaign(b *testing.B) {
	const budget = 500_000
	spec := campaign.DefaultSpec(budget)
	spec.Benchmarks = []string{"gzip", "mcf", "crafty"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	d := campaign.DefaultSampling()
	spec.Sampling = &d
	eng := &campaign.Engine{Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(spec.Benchmarks)) * budget)
}

// ckptSweepSpec is the checkpoint store's acceptance workload: an
// 8-cell IQ sweep of one sampled benchmark. Every cell shares one
// warming identity (the IQ axis is excluded from the checkpoint key),
// so with a store the grid warms once; without, eight times. The regime
// is sparse (2k windows every 200k) — the production shape where
// fast-forward+warming dominate and the store has the most to amortize.
func ckptSweepSpec() campaign.Spec {
	spec := campaign.DefaultSpec(1_000_000)
	spec.Name = "ckpt-sweep"
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: []int{16, 24, 32, 40, 48, 56, 64, 80}}}
	spec.Sampling = &campaign.Sampling{Window: 2_000, Period: 200_000, Warmup: 20_000, DetailWarmup: 1_000}
	return spec
}

// BenchmarkSweepNoCkpt runs the acceptance sweep warm-from-scratch:
// every cell pays its own fast-forward and functional warming.
func BenchmarkSweepNoCkpt(b *testing.B) {
	spec := ckptSweepSpec()
	eng := &campaign.Engine{Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 1_000_000)
}

// BenchmarkSweepCkpt runs the same sweep against a checkpoint store:
// the first cell generates the artifact, the rest resume from it. The
// ratio SweepNoCkpt/SweepCkpt is the store's realised speedup.
func BenchmarkSweepCkpt(b *testing.B) {
	spec := ckptSweepSpec()
	store, err := ckpt.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	eng := &campaign.Engine{Workers: 1, Ckpt: store}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 1_000_000)
}

// BenchmarkLockstepSweep runs the acceptance sweep with lockstep
// batching and no store: ONE emulator + warming stream feeds all eight
// detailed cores, so the shared functional work is paid once instead of
// eight times. The ratio SweepNoCkpt/LockstepSweep is the lockstep
// engine's realised speedup.
func BenchmarkLockstepSweep(b *testing.B) {
	spec := ckptSweepSpec()
	eng := &campaign.Engine{Workers: 1, Lockstep: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(8 * 1_000_000)
}

// BenchmarkAnalysisPass measures the whole compiler pass across the
// suite (the table-2 quantity, aggregated).
func BenchmarkAnalysisPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range workload.Suite() {
			b.StopTimer()
			p := w.Build(42)
			b.StartTimer()
			if _, err := core.Instrument(p, core.Options{Mode: core.ModeTag}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
