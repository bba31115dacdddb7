package exp

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PaperValues records the paper's reported averages for side-by-side
// comparison in the rendered output.
var PaperValues = struct {
	NOOPIPCLoss, AbellaIPCLoss                 float64
	ExtensionIPCLoss, ImprovedIPCLoss          float64
	OccupancyReduction                         float64
	BanksOff, AbellaBanksOff                   float64
	NOOPIQDyn, NOOPIQStatic                    float64
	AbellaIQDyn, AbellaIQStatic                float64
	ExtIQDyn, ExtIQStatic                      float64
	NOOPRFDyn, NOOPRFStatic                    float64
	AbellaRFDyn, AbellaRFStatic                float64
	ExtRFDyn, ExtRFStatic, ImpRFDyn, ImpRFStat float64
	OverallDyn                                 float64
}{
	NOOPIPCLoss: 2.2, AbellaIPCLoss: 3.1,
	ExtensionIPCLoss: 1.7, ImprovedIPCLoss: 1.3,
	OccupancyReduction: 23,
	BanksOff:           37, AbellaBanksOff: 34,
	NOOPIQDyn: 47, NOOPIQStatic: 31,
	AbellaIQDyn: 39, AbellaIQStatic: 30,
	ExtIQDyn: 45, ExtIQStatic: 30,
	NOOPRFDyn: 22, NOOPRFStatic: 21,
	AbellaRFDyn: 14, AbellaRFStatic: 17,
	ExtRFDyn: 21, ExtRFStatic: 21, ImpRFDyn: 22, ImpRFStat: 20,
	OverallDyn: 11,
}

// Table1 renders the processor configuration (paper table 1).
func Table1(cfg sim.Config) string {
	t := newTable("Table 1: processor configuration", "Parameter", "Configuration")
	t.addRow("Fetch, decode and commit width", fmt.Sprintf("%d instructions", cfg.FetchWidth))
	t.addRow("Branch predictor", "Hybrid 2K gshare, 2K bimodal, 1K selector")
	t.addRow("BTB", fmt.Sprintf("%d entries, %d-way", cfg.Bpred.BTBEntries, cfg.Bpred.BTBAssoc))
	t.addRow("L1 Icache", "64KB, 2-way, 32B line, 1 cycle hit")
	t.addRow("L1 Dcache", "64KB, 4-way, 32B line, 2 cycles hit")
	t.addRow("Unified L2 cache", "512KB, 8-way, 64B line, 10 cycles hit, 50 cycles miss")
	t.addRow("ROB size", fmt.Sprintf("%d entries", cfg.ROBSize))
	t.addRow("Issue queue", fmt.Sprintf("%d entries (%d banks of %d)",
		cfg.IQ.Entries, cfg.IQ.Entries/cfg.IQ.BankSize, cfg.IQ.BankSize))
	t.addRow("Int register file", fmt.Sprintf("%d entries (%d banks of %d)",
		cfg.IntRF.Regs, cfg.IntRF.Regs/cfg.IntRF.BankSize, cfg.IntRF.BankSize))
	t.addRow("FP register file", fmt.Sprintf("%d entries (%d banks of %d)",
		cfg.FPRF.Regs, cfg.FPRF.Regs/cfg.FPRF.BankSize, cfg.FPRF.BankSize))
	t.addRow("Int FUs", fmt.Sprintf("%d ALU (1 cycle), %d Mul (3 cycles)", cfg.FU.IntALU, cfg.FU.IntMul))
	t.addRow("FP FUs", fmt.Sprintf("%d ALU (2 cycles), %d MultDiv (4/12 cycles)", cfg.FU.FPALU, cfg.FU.FPMulDiv))
	t.addRow("Memory ports", fmt.Sprintf("%d", cfg.MemPorts))
	return t.String()
}

// Table2 measures compilation time per benchmark: program generation
// ("Baseline") versus generation plus the full analysis and
// instrumentation ("Limited"), mirroring the paper's table 2 (where SUIF
// took minutes; our pass takes milliseconds — the ordering across
// benchmarks is the comparable shape).
func Table2(seed int64) string {
	t := newTable("Table 2: compilation times (ms)", "Benchmark", "Baseline", "Limited", "Ratio")
	for _, b := range workload.Suite() {
		_, res, err := campaign.Prepare(&campaign.Job{Bench: b.Name, Tech: campaign.TechNOOP, Seed: seed})
		if err != nil {
			t.addRow(b.Name, "error", err.Error(), "")
			continue
		}
		ratio := 0.0
		if res.GenMS > 0 {
			ratio = (res.GenMS + res.CompileMS) / res.GenMS
		}
		t.addRow(b.Name, f2(res.GenMS), f2(res.GenMS+res.CompileMS), f1(ratio))
	}
	t.addNote("Paper: SUIF-based pass, minutes on a Pentium 4 (gcc slowest at 186 min).")
	t.addNote("Here: Go analysis pass on synthetic programs; compare relative ordering.")
	return t.String()
}

// figure6Table builds the per-benchmark IPC loss of the NOOP technique,
// with the abella baseline and the SPECINT mean (paper figure 6).
func figure6Table(s *SuiteResults) *table {
	t := newTable("Figure 6: normalised IPC loss, NOOP technique (%)",
		"Benchmark", "NOOP", "abella")
	for _, b := range s.Benchmarks {
		t.addRow(b, f2(s.IPCLossPct(b, campaign.TechNOOP)), f2(s.IPCLossPct(b, campaign.TechAbella)))
	}
	t.addRow("SPECINT",
		f2(s.Mean(func(b string) float64 { return s.IPCLossPct(b, campaign.TechNOOP) })),
		f2(s.Mean(func(b string) float64 { return s.IPCLossPct(b, campaign.TechAbella) })))
	t.addNote("Paper SPECINT: NOOP %.1f%%, abella %.1f%%.", PaperValues.NOOPIPCLoss, PaperValues.AbellaIPCLoss)
	return t
}

// figure7Table builds the IQ occupancy reduction of the NOOP technique
// (paper figure 7), plus the banks-off fractions of section 5.2.2.
func figure7Table(s *SuiteResults) *table {
	t := newTable("Figure 7: normalised IQ occupancy reduction, NOOP technique (%)",
		"Benchmark", "OccRed", "BanksOff", "abellaBanksOff")
	for _, b := range s.Benchmarks {
		t.addRow(b, f1(s.OccupancyReductionPct(b, campaign.TechNOOP)),
			f1(s.BanksOffPct(b, campaign.TechNOOP)), f1(s.BanksOffPct(b, campaign.TechAbella)))
	}
	t.addRow("SPECINT",
		f1(s.Mean(func(b string) float64 { return s.OccupancyReductionPct(b, campaign.TechNOOP) })),
		f1(s.Mean(func(b string) float64 { return s.BanksOffPct(b, campaign.TechNOOP) })),
		f1(s.Mean(func(b string) float64 { return s.BanksOffPct(b, campaign.TechAbella) })))
	t.addNote("Paper: occupancy reduction %.0f%%, banks off %.0f%% (abella %.0f%%).",
		PaperValues.OccupancyReduction, PaperValues.BanksOff, PaperValues.AbellaBanksOff)
	return t
}

// figure8Table builds the IQ dynamic and static power savings of the
// NOOP technique, with the nonEmpty and abella bars (paper figure 8).
func figure8Table(s *SuiteResults) *table {
	t := newTable("Figure 8: normalised IQ power savings, NOOP technique (%)",
		"Benchmark", "Dynamic", "Static")
	for _, b := range s.Benchmarks {
		sv := s.Savings(b, campaign.TechNOOP)
		t.addRow(b, f1(sv.IQDynamicPct), f1(sv.IQStaticPct))
	}
	t.addRow("SPECINT",
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).IQDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).IQStaticPct })))
	t.addRow("abella",
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechAbella).IQDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechAbella).IQStaticPct })))
	t.addRow("nonEmpty", f1(s.Mean(s.NonEmptyPct)), "-")
	t.addNote("Paper SPECINT: dynamic %.0f%%, static %.0f%%; abella %.0f%%/%.0f%%.",
		PaperValues.NOOPIQDyn, PaperValues.NOOPIQStatic,
		PaperValues.AbellaIQDyn, PaperValues.AbellaIQStatic)
	return t
}

// figure9Table builds the integer register file power savings of the NOOP
// technique with the abella bar (paper figure 9).
func figure9Table(s *SuiteResults) *table {
	t := newTable("Figure 9: normalised int regfile power savings, NOOP technique (%)",
		"Benchmark", "Dynamic", "Static")
	for _, b := range s.Benchmarks {
		sv := s.Savings(b, campaign.TechNOOP)
		t.addRow(b, f1(sv.RFDynamicPct), f1(sv.RFStaticPct))
	}
	t.addRow("SPECINT",
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).RFDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).RFStaticPct })))
	t.addRow("abella",
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechAbella).RFDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechAbella).RFStaticPct })))
	t.addNote("Paper SPECINT: dynamic %.0f%%, static %.0f%%; abella %.0f%%/%.0f%%.",
		PaperValues.NOOPRFDyn, PaperValues.NOOPRFStatic,
		PaperValues.AbellaRFDyn, PaperValues.AbellaRFStatic)
	return t
}

// figure10Table builds the IPC loss of Extension and Improved with NOOP and
// abella for comparison (paper figure 10).
func figure10Table(s *SuiteResults) *table {
	t := newTable("Figure 10: normalised IPC loss, Extension and Improved (%)",
		"Benchmark", "Extension", "Improved", "NOOP", "abella")
	for _, b := range s.Benchmarks {
		t.addRow(b,
			f2(s.IPCLossPct(b, campaign.TechExtension)), f2(s.IPCLossPct(b, campaign.TechImproved)),
			f2(s.IPCLossPct(b, campaign.TechNOOP)), f2(s.IPCLossPct(b, campaign.TechAbella)))
	}
	mean := func(tech campaign.Technique) string {
		return f2(s.Mean(func(b string) float64 { return s.IPCLossPct(b, tech) }))
	}
	t.addRow("SPECINT", mean(campaign.TechExtension), mean(campaign.TechImproved), mean(campaign.TechNOOP), mean(campaign.TechAbella))
	t.addNote("Paper SPECINT: Extension %.1f%%, Improved <%.1f%%.",
		PaperValues.ExtensionIPCLoss, PaperValues.ImprovedIPCLoss)
	return t
}

// figure11Table builds the IQ power savings of Extension and Improved
// (paper figure 11), plus the section 6 overall-processor saving.
func figure11Table(s *SuiteResults) *table {
	t := newTable("Figure 11: normalised IQ power savings, Extension and Improved (%)",
		"Benchmark", "ExtDyn", "ExtStat", "ImpDyn", "ImpStat")
	for _, b := range s.Benchmarks {
		e := s.Savings(b, campaign.TechExtension)
		i := s.Savings(b, campaign.TechImproved)
		t.addRow(b, f1(e.IQDynamicPct), f1(e.IQStaticPct), f1(i.IQDynamicPct), f1(i.IQStaticPct))
	}
	t.addRow("SPECINT",
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechExtension).IQDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechExtension).IQStaticPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechImproved).IQDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechImproved).IQStaticPct })))
	overall := s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechImproved).OverallDynamicPct })
	t.addNote("Paper SPECINT: dynamic %.0f%%, static %.0f%% (both techniques).",
		PaperValues.ExtIQDyn, PaperValues.ExtIQStatic)
	t.addNote("Overall processor dynamic saving (Improved, section 6 shares): %.1f%% (paper ~%.0f%%).",
		overall, PaperValues.OverallDyn)
	return t
}

// figure12Table builds the regfile power savings of Extension and Improved
// (paper figure 12).
func figure12Table(s *SuiteResults) *table {
	t := newTable("Figure 12: normalised int regfile power savings, Extension and Improved (%)",
		"Benchmark", "ExtDyn", "ExtStat", "ImpDyn", "ImpStat")
	for _, b := range s.Benchmarks {
		e := s.Savings(b, campaign.TechExtension)
		i := s.Savings(b, campaign.TechImproved)
		t.addRow(b, f1(e.RFDynamicPct), f1(e.RFStaticPct), f1(i.RFDynamicPct), f1(i.RFStaticPct))
	}
	t.addRow("SPECINT",
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechExtension).RFDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechExtension).RFStaticPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechImproved).RFDynamicPct })),
		f1(s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechImproved).RFStaticPct })))
	t.addNote("Paper SPECINT: Extension %.0f%%/%.0f%%, Improved %.0f%%/%.0f%%.",
		PaperValues.ExtRFDyn, PaperValues.ExtRFStatic, PaperValues.ImpRFDyn, PaperValues.ImpRFStat)
	return t
}

// summaryTable builds a one-screen overview of every headline number
// against the paper.
func summaryTable(s *SuiteResults) *table {
	t := newTable("Headline comparison: paper vs measured (SPECINT means)",
		"Metric", "Paper", "Measured")
	add := func(name string, paper float64, measured float64) {
		t.addRow(name, f1(paper), f1(measured))
	}
	add("NOOP IPC loss %", PaperValues.NOOPIPCLoss,
		s.Mean(func(b string) float64 { return s.IPCLossPct(b, campaign.TechNOOP) }))
	add("abella IPC loss %", PaperValues.AbellaIPCLoss,
		s.Mean(func(b string) float64 { return s.IPCLossPct(b, campaign.TechAbella) }))
	add("Extension IPC loss %", PaperValues.ExtensionIPCLoss,
		s.Mean(func(b string) float64 { return s.IPCLossPct(b, campaign.TechExtension) }))
	add("Improved IPC loss %", PaperValues.ImprovedIPCLoss,
		s.Mean(func(b string) float64 { return s.IPCLossPct(b, campaign.TechImproved) }))
	add("IQ occupancy reduction %", PaperValues.OccupancyReduction,
		s.Mean(func(b string) float64 { return s.OccupancyReductionPct(b, campaign.TechNOOP) }))
	add("IQ banks off %", PaperValues.BanksOff,
		s.Mean(func(b string) float64 { return s.BanksOffPct(b, campaign.TechNOOP) }))
	add("NOOP IQ dynamic saving %", PaperValues.NOOPIQDyn,
		s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).IQDynamicPct }))
	add("NOOP IQ static saving %", PaperValues.NOOPIQStatic,
		s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).IQStaticPct }))
	add("abella IQ dynamic saving %", PaperValues.AbellaIQDyn,
		s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechAbella).IQDynamicPct }))
	add("NOOP RF dynamic saving %", PaperValues.NOOPRFDyn,
		s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).RFDynamicPct }))
	add("NOOP RF static saving %", PaperValues.NOOPRFStatic,
		s.Mean(func(b string) float64 { return s.Savings(b, campaign.TechNOOP).RFStaticPct }))
	return t
}

// Figure is one view of the evaluation under its -experiment name.
type Figure struct {
	Name  string
	table func(*SuiteResults) *table
}

// Figures lists the paper's figures 6-12 and the headline summary, in
// the order -experiment all prints them.
var Figures = []Figure{
	{"fig6", figure6Table},
	{"fig7", figure7Table},
	{"fig8", figure8Table},
	{"fig9", figure9Table},
	{"fig10", figure10Table},
	{"fig11", figure11Table},
	{"fig12", figure12Table},
	{"summary", summaryTable},
}

// Render renders the figure as an aligned text table, or as CSV. The
// summary of a sampled suite closes with its sampling report.
func (f Figure) Render(s *SuiteResults, csv bool) string {
	out := f.table(s).render(csv)
	if f.Name == "summary" && s.Sampled() {
		report := SamplingReport(s)
		if csv {
			report = SamplingReportCSV(s)
		}
		out += "\n" + report
	}
	return out
}

// AllFigures renders the complete evaluation: every figure in order,
// preceded in text form by tables 1 and 2 of the campaign's own
// configuration and seed.
func AllFigures(s *SuiteResults, csv bool) string {
	var parts []string
	if !csv {
		parts = append(parts, Table1(s.Campaign.Spec.Base), Table2(s.Campaign.Spec.Seed))
	}
	for _, f := range Figures {
		parts = append(parts, f.Render(s, csv))
	}
	return strings.Join(parts, "\n")
}
