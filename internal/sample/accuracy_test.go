package sample

import (
	"context"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// gateBenches is the standard three-benchmark sweep of the accuracy
// gate: a loop-dominated, a memory-bound and a branchy workload, chosen
// to stress the three state classes warming must keep hot (I-side
// locality, D-cache, predictor).
var gateBenches = []string{"gzip", "mcf", "crafty"}

// gateBudget is large enough that sampling statistics settle (about 100
// windows per benchmark under the default regime) while keeping the
// exact reference runs to roughly a second each.
const gateBudget = 2_000_000

// totalEnergy is the composite relative-energy figure the gate bounds:
// the technique-side accounting of the power model (gated wakeup, banked
// leakage) summed over the issue queue and the integer register file.
func totalEnergy(st *sim.Stats, cfg *sim.Config) float64 {
	p := power.DefaultParams()
	iqBanks := cfg.IQ.Entries / cfg.IQ.BankSize
	rfBanks := cfg.IntRF.Regs / cfg.IntRF.BankSize
	return p.IQDynamic(st, power.Gated) + p.IQStatic(st, iqBanks, false) +
		p.RFDynamic(st, rfBanks, true) + p.RFStatic(st, rfBanks, false)
}

func relErrPct(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return 100 * math.Abs(got-want) / math.Abs(want)
}

// TestAccuracyGate is the in-repo accuracy gate: sampled-mode IPC and
// energy must land within 2% of the exact run, as a mean over the
// standard three-benchmark sweep, and every per-benchmark error must
// stay within twice the gate. CI runs this on every push.
func TestAccuracyGate(t *testing.T) {
	if raceEnabled {
		t.Skip("accuracy gate runs natively in the dedicated CI job; see race_off.go")
	}
	const gatePct = 2.0
	var ipcErrs, energyErrs []float64
	cfg := sim.DefaultConfig()
	for _, name := range gateBenches {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		exact, err := sim.RunProgram(cfg, b.Build(42), gateBudget)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), cfg, b.Build(42), gateBudget, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ipcErr := relErrPct(rep.Stats.IPC(), exact.IPC())
		energyErr := relErrPct(totalEnergy(&rep.Stats, &cfg), totalEnergy(&exact, &cfg))
		t.Logf("%-8s exact IPC %.4f  sampled %.4f ±%.2f%%  IPC err %.2f%%  energy err %.2f%%  (%d windows, %.1f%% sampled)",
			name, exact.IPC(), rep.Stats.IPC(), rep.IPC.RelHalfPct(),
			ipcErr, energyErr, len(rep.Windows), 100*rep.SampledFraction())
		if ipcErr > 2*gatePct {
			t.Errorf("%s: per-benchmark IPC error %.2f%% exceeds %.1f%%", name, ipcErr, 2*gatePct)
		}
		if energyErr > 2*gatePct {
			t.Errorf("%s: per-benchmark energy error %.2f%% exceeds %.1f%%", name, energyErr, 2*gatePct)
		}
		ipcErrs = append(ipcErrs, ipcErr)
		energyErrs = append(energyErrs, energyErr)
	}
	meanIPC := stats.Mean(ipcErrs)
	meanEnergy := stats.Mean(energyErrs)
	t.Logf("mean |IPC err| %.2f%%  mean |energy err| %.2f%% (gate %.1f%%)", meanIPC, meanEnergy, gatePct)
	if meanIPC > gatePct {
		t.Errorf("mean IPC error %.2f%% exceeds the %.1f%% gate", meanIPC, gatePct)
	}
	if meanEnergy > gatePct {
		t.Errorf("mean energy error %.2f%% exceeds the %.1f%% gate", meanEnergy, gatePct)
	}
}

// TestAccuracyGateLockstep re-runs the accuracy gate with the sampled
// side executing as a lockstep batch: each benchmark's default
// configuration rides in an IQ-sweep batch of four cells, and the
// default cell must meet the same bounds as the solo gate. The batch
// path is proven bit-identical to the solo path by the differential
// suite (lockstep_test.go); this gate guards the other half — that the
// shared-stream results stay accurate against exact simulation, not
// merely self-consistent. It arms only in the dedicated CI job
// (SAMPLE_GATE=1): it repeats the full gate workload.
func TestAccuracyGateLockstep(t *testing.T) {
	if raceEnabled {
		t.Skip("accuracy gate runs natively in the dedicated CI job; see race_off.go")
	}
	if os.Getenv("SAMPLE_GATE") != "1" {
		t.Skip("SAMPLE_GATE not set; the solo gate already runs on every push")
	}
	const gatePct = 2.0
	iqSweep := []int{80, 48, 32, 16} // cell 0 is the default configuration
	var ipcErrs, energyErrs []float64
	for _, name := range gateBenches {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		cfgs := make([]sim.Config, len(iqSweep))
		for i, n := range iqSweep {
			cfgs[i] = sim.DefaultConfig()
			cfgs[i].IQ.Entries = n
		}
		exact, err := sim.RunProgram(cfgs[0], b.Build(42), gateBudget)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := RunLockstepStored(context.Background(), cfgs, b.Build(42), gateBudget, Config{}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, cell := range cells {
			if cell.Err != nil {
				t.Fatalf("%s: lockstep cell iq=%d: %v", name, iqSweep[i], cell.Err)
			}
		}
		rep := cells[0].Report
		ipcErr := relErrPct(rep.Stats.IPC(), exact.IPC())
		energyErr := relErrPct(totalEnergy(&rep.Stats, &cfgs[0]), totalEnergy(&exact, &cfgs[0]))
		t.Logf("%-8s exact IPC %.4f  lockstep %.4f ±%.2f%%  IPC err %.2f%%  energy err %.2f%%  (%d windows, %d cells)",
			name, exact.IPC(), rep.Stats.IPC(), rep.IPC.RelHalfPct(),
			ipcErr, energyErr, len(rep.Windows), len(cells))
		if ipcErr > 2*gatePct {
			t.Errorf("%s: per-benchmark IPC error %.2f%% exceeds %.1f%%", name, ipcErr, 2*gatePct)
		}
		if energyErr > 2*gatePct {
			t.Errorf("%s: per-benchmark energy error %.2f%% exceeds %.1f%%", name, energyErr, 2*gatePct)
		}
		ipcErrs = append(ipcErrs, ipcErr)
		energyErrs = append(energyErrs, energyErr)
	}
	meanIPC := stats.Mean(ipcErrs)
	meanEnergy := stats.Mean(energyErrs)
	t.Logf("lockstep mean |IPC err| %.2f%%  mean |energy err| %.2f%% (gate %.1f%%)", meanIPC, meanEnergy, gatePct)
	if meanIPC > gatePct {
		t.Errorf("mean IPC error %.2f%% exceeds the %.1f%% gate", meanIPC, gatePct)
	}
	if meanEnergy > gatePct {
		t.Errorf("mean energy error %.2f%% exceeds the %.1f%% gate", meanEnergy, gatePct)
	}
}

// TestSampledSpeedup measures the wall-clock speedup of sampled over
// exact simulation on the standard sweep and requires >=5x. Wall-clock
// assertions are inherently machine- and load-sensitive, so the check
// only arms when SAMPLE_GATE=1 (the dedicated CI job sets it); without
// it the measurement still runs and logs.
func TestSampledSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are meaningless under the race detector; see race_off.go")
	}
	cfg := sim.DefaultConfig()
	var tExact, tSampled time.Duration
	for _, name := range gateBenches {
		b, _ := workload.ByName(name)
		p := b.Build(42)
		t0 := time.Now()
		if _, err := sim.RunProgram(cfg, p, gateBudget); err != nil {
			t.Fatal(err)
		}
		tExact += time.Since(t0)
		t0 = time.Now()
		if _, err := Run(context.Background(), cfg, b.Build(42), gateBudget, Config{}); err != nil {
			t.Fatal(err)
		}
		tSampled += time.Since(t0)
	}
	speedup := float64(tExact) / float64(tSampled)
	t.Logf("exact %v, sampled %v: %.1fx speedup", tExact, tSampled, speedup)
	if os.Getenv("SAMPLE_GATE") != "1" {
		t.Logf("SAMPLE_GATE not set; speedup threshold not enforced")
		return
	}
	if speedup < 5 {
		t.Errorf("sampled speedup %.1fx below the 5x gate", speedup)
	}
}
