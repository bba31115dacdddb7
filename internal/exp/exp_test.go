package exp

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// suite runs the full evaluation once per test binary at a reduced budget
// and shares it across tests (the shape assertions all read it).
var sharedSuite *SuiteResults

func getSuite(t *testing.T) *SuiteResults {
	t.Helper()
	if sharedSuite != nil {
		return sharedSuite
	}
	r := NewRunner(120_000)
	s, err := r.RunSuite(AllTechniques())
	if err != nil {
		t.Fatal(err)
	}
	sharedSuite = s
	return s
}

func TestRunSingleBenchmark(t *testing.T) {
	r := NewRunner(20_000)
	r.Benchmarks = []string{"gzip"}
	s, err := r.RunSuite([]Technique{TechNOOP})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Results["gzip"][TechNOOP]
	if res.Stats.CommittedReal != 20_000 {
		t.Errorf("committed = %d, want budget", res.Stats.CommittedReal)
	}
	if res.Hints == 0 {
		t.Error("NOOP technique inserted no hints")
	}
	if res.Stats.HintsApplied == 0 {
		t.Error("no hints applied at runtime")
	}
}

func TestTechniqueNames(t *testing.T) {
	want := map[Technique]string{
		TechBaseline:  "baseline",
		TechNOOP:      "NOOP",
		TechExtension: "Extension",
		TechImproved:  "Improved",
		TechAbella:    "abella",
	}
	for tech, name := range want {
		if tech.String() != name {
			t.Errorf("technique %d = %q, want %q", int(tech), tech.String(), name)
		}
	}
	if len(AllTechniques()) != int(numTechniques) {
		t.Errorf("AllTechniques incomplete")
	}
}

// TestPaperShapeIPCLoss asserts the paper's figure 6/10 orderings: the
// compiler techniques lose less than the hardware-adaptive abella, the
// tag-based Extension loses no more than NOOP insertion, and Improved
// loses no more than Extension. Absolute values are substrate-dependent
// and not asserted (see EXPERIMENTS.md).
func TestPaperShapeIPCLoss(t *testing.T) {
	s := getSuite(t)
	loss := func(tech Technique) float64 {
		return s.Mean(func(b string) float64 { return s.IPCLossPct(b, tech) })
	}
	noop, ext, imp, abella := loss(TechNOOP), loss(TechExtension), loss(TechImproved), loss(TechAbella)
	t.Logf("IPC loss: NOOP=%.2f Extension=%.2f Improved=%.2f abella=%.2f", noop, ext, imp, abella)
	if noop >= abella {
		t.Errorf("NOOP loss %.2f must be below abella %.2f (paper fig 6)", noop, abella)
	}
	if ext > noop+0.2 {
		t.Errorf("Extension loss %.2f must not exceed NOOP %.2f (paper fig 10)", ext, noop)
	}
	if imp > ext+0.2 {
		t.Errorf("Improved loss %.2f must not exceed Extension %.2f (paper fig 10)", imp, ext)
	}
	if noop < 0 || noop > 8 {
		t.Errorf("NOOP loss %.2f out of plausible range (paper 2.2%%)", noop)
	}
}

// TestPaperShapePowerSavings asserts the figure 8/9 orderings: the
// technique's IQ dynamic saving beats both the nonEmpty accounting bar
// and abella's, at lower IPC loss; register-file savings are positive and
// smaller than IQ savings.
func TestPaperShapePowerSavings(t *testing.T) {
	s := getSuite(t)
	dyn := s.Mean(func(b string) float64 { return s.Savings(b, TechNOOP).IQDynamicPct })
	stat := s.Mean(func(b string) float64 { return s.Savings(b, TechNOOP).IQStaticPct })
	abellaDyn := s.Mean(func(b string) float64 { return s.Savings(b, TechAbella).IQDynamicPct })
	nonEmpty := s.Mean(s.NonEmptyPct)
	rfDyn := s.Mean(func(b string) float64 { return s.Savings(b, TechNOOP).RFDynamicPct })
	rfStat := s.Mean(func(b string) float64 { return s.Savings(b, TechNOOP).RFStaticPct })
	t.Logf("IQ dyn=%.1f stat=%.1f nonEmpty=%.1f abellaDyn=%.1f RF dyn=%.1f stat=%.1f",
		dyn, stat, nonEmpty, abellaDyn, rfDyn, rfStat)
	if dyn <= nonEmpty {
		t.Errorf("technique dyn %.1f must beat nonEmpty gating alone %.1f", dyn, nonEmpty)
	}
	if dyn < abellaDyn-1.0 {
		t.Errorf("technique dyn %.1f must be at least abella's %.1f", dyn, abellaDyn)
	}
	if dyn < 30 || dyn > 65 {
		t.Errorf("IQ dynamic saving %.1f implausible (paper 47%%)", dyn)
	}
	if stat < 20 || stat > 60 {
		t.Errorf("IQ static saving %.1f implausible (paper 31%%)", stat)
	}
	if rfDyn <= 0 || rfStat <= 0 {
		t.Errorf("regfile savings must be positive: %.1f/%.1f", rfDyn, rfStat)
	}
	if rfDyn >= dyn {
		t.Errorf("regfile dyn %.1f must be below IQ dyn %.1f (paper fig 8 vs 9)", rfDyn, dyn)
	}
}

// TestPaperShapePerBenchmark asserts the benchmark-level stories the
// paper tells: mcf (memory-bound) has the lowest IPC loss; the call-dense
// interpreter benchmark suffers most under NOOP insertion and is fixed by
// Extension; occupancy reduction is substantial on average.
func TestPaperShapePerBenchmark(t *testing.T) {
	s := getSuite(t)
	if l := s.IPCLossPct("mcf", TechNOOP); l > 0.5 {
		t.Errorf("mcf NOOP loss %.2f, want ~0 (memory-bound)", l)
	}
	// Among the benchmarks the NOOP technique hurts, at least one must be
	// rescued by Extension — the paper's vortex story (NOOP-slot cost
	// vanishes under tagging). Not every hurt benchmark is slot-driven
	// (some losses come from hint values), so the assertion is
	// existential, exactly like the paper's narrative.
	rescued := false
	var hurt []string
	for _, b := range s.Benchmarks {
		noopLoss := s.IPCLossPct(b, TechNOOP)
		if noopLoss < 1.0 {
			continue
		}
		hurt = append(hurt, b)
		extLoss := s.IPCLossPct(b, TechExtension)
		t.Logf("%s: NOOP %.2f%% -> Extension %.2f%%", b, noopLoss, extLoss)
		if extLoss < noopLoss*0.4 {
			rescued = true
		}
	}
	if len(hurt) > 0 && !rescued {
		t.Errorf("no NOOP-hurt benchmark (%v) was rescued by Extension", hurt)
	}
	occ := s.Mean(func(b string) float64 { return s.OccupancyReductionPct(b, TechNOOP) })
	if occ < 8 {
		t.Errorf("mean occupancy reduction %.1f%% too small (paper 23%%)", occ)
	}
	if mcfOcc := s.OccupancyReductionPct("mcf", TechNOOP); mcfOcc < 40 {
		t.Errorf("mcf occupancy reduction %.1f%%, want large (serial chain)", mcfOcc)
	}
}

func TestFigureRenderings(t *testing.T) {
	s := getSuite(t)
	figs := map[string]string{
		"fig6":  Figure6(s),
		"fig7":  Figure7(s),
		"fig8":  Figure8(s),
		"fig9":  Figure9(s),
		"fig10": Figure10(s),
		"fig11": Figure11(s),
		"fig12": Figure12(s),
		"sum":   Summary(s),
	}
	for name, text := range figs {
		if !strings.Contains(text, "SPECINT") && name != "sum" {
			t.Errorf("%s: missing SPECINT mean row", name)
		}
		for _, b := range s.Benchmarks {
			if name != "sum" && !strings.Contains(text, b) {
				t.Errorf("%s: missing benchmark %s", name, b)
			}
		}
		if len(text) < 100 {
			t.Errorf("%s: suspiciously short rendering", name)
		}
	}
	if !strings.Contains(figs["fig8"], "nonEmpty") {
		t.Error("figure 8 must include the nonEmpty bar")
	}
	if !strings.Contains(figs["fig8"], "abella") {
		t.Error("figure 8 must include the abella bar")
	}
}

func TestTable1Rendering(t *testing.T) {
	r := NewRunner(0)
	text := Table1(r.Config)
	for _, want := range []string{"80 entries", "128 entries", "112 entries",
		"Hybrid 2K gshare", "64KB", "512KB", "6 ALU (1 cycle), 3 Mul (3 cycles)"} {
		if !strings.Contains(text, want) {
			t.Errorf("table 1 missing %q:\n%s", want, text)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	text := Table2(42)
	for _, b := range workload.Suite() {
		if !strings.Contains(text, b.Name) {
			t.Errorf("table 2 missing %s", b.Name)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	tb := newTable("x", "A", "B")
	tb.addRow("1", "2")
	csv := tb.CSV()
	if csv != "A,B\n1,2\n" {
		t.Errorf("CSV = %q", csv)
	}
}

func TestMeanHelper(t *testing.T) {
	s := &SuiteResults{Benchmarks: []string{"a", "b"}}
	got := s.Mean(func(b string) float64 {
		if b == "a" {
			return 2
		}
		return 4
	})
	if got != 3 {
		t.Errorf("mean = %f, want 3", got)
	}
	empty := &SuiteResults{}
	if empty.Mean(func(string) float64 { return 1 }) != 0 {
		t.Error("empty mean must be 0")
	}
}
