// Command sdiqsim runs one benchmark under one technique and prints a
// detailed machine report: IPC, stall breakdown, branch and cache rates,
// and occupancy histograms for the issue queue and register file — the
// inspection companion to the sdiq experiment driver.
//
// The run is one campaign job (internal/campaign) with a per-cycle probe
// attached, so the cell inspected here is configured exactly as the same
// cell of a full sdiq campaign.
//
// Usage:
//
//	sdiqsim -bench gzip [-tech baseline|noop|tag|improved|abella]
//	        [-budget N] [-seed N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
)

// histProbe accumulates per-cycle occupancy histograms.
type histProbe struct {
	iq, rf, rob *stats.Histogram
}

func (h *histProbe) Sample(cycle int64, s sim.ProbeSample) {
	h.iq.Add(float64(s.IQCount))
	h.rf.Add(float64(s.IntRFLive))
	h.rob.Add(float64(s.ROBCount))
}

func main() {
	bench := flag.String("bench", "gzip", "benchmark name")
	tech := flag.String("tech", "baseline", "baseline, noop, tag, improved or abella")
	budget := flag.Int64("budget", 200_000, "committed instructions")
	seed := flag.Int64("seed", 42, "generator seed")
	flag.Parse()

	technique, err := campaign.ParseTechnique(*tech)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdiqsim: %v\n", err)
		os.Exit(2)
	}
	spec := campaign.DefaultSpec(*budget)
	spec.Name = "inspect"
	spec.Benchmarks = []string{*bench}
	spec.Techniques = []campaign.Technique{technique}
	spec.Seed = *seed
	jobs, err := spec.Jobs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdiqsim: %v\n", err)
		os.Exit(1)
	}
	job := jobs[0]

	probe := &histProbe{
		iq:  stats.NewHistogram(0, float64(job.Config.IQ.Entries), 10),
		rf:  stats.NewHistogram(0, float64(job.Config.IntRF.Regs), 14),
		rob: stats.NewHistogram(0, float64(job.Config.ROBSize), 8),
	}
	job.Config.Probe = probe

	res, err := campaign.ExecuteStored(context.Background(), &job, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdiqsim: %v\n", err)
		os.Exit(1)
	}
	st := res.Stats

	fmt.Printf("%s under %s: %d instructions in %d cycles (IPC %.3f)\n\n",
		*bench, technique, st.CommittedReal, st.Cycles, st.IPC())
	fmt.Printf("compile:    %d static hints in %.1fms (generation %.1fms)\n",
		res.Hints, res.CompileMS, res.GenMS)
	fmt.Printf("front end:  %.2f%% cond mispredict, %.2f%% L1I miss, %d BTB bubbles\n",
		100*st.Bpred.MispredictRate(), 100*st.IL1.MissRate(), st.BTBBubbles)
	fmt.Printf("memory:     %.2f%% L1D miss, %.2f%% L2 miss\n",
		100*st.DL1.MissRate(), 100*st.L2.MissRate())
	fmt.Printf("hints:      %d applied, %d NOOP slots consumed\n",
		st.HintsApplied, st.CommittedHints)
	fmt.Printf("dispatch stalls (cycles): iqFull=%d hint=%d sizeLimit=%d rob=%d physReg=%d lsq=%d\n\n",
		st.StallIQFull, st.StallHintLimit, st.StallSizeLimit,
		st.StallROBFull, st.StallNoPhysReg, st.StallLSQFull)
	fmt.Printf("issue queue occupancy (mean %.1f of %d; %.1f banks on):\n%s\n",
		st.AvgIQOccupancy(), job.Config.IQ.Entries, st.AvgIQBanksOn(), probe.iq)
	fmt.Printf("live integer registers (mean %.1f of %d):\n%s\n",
		st.AvgIntRFLive(), job.Config.IntRF.Regs, probe.rf)
	fmt.Printf("reorder buffer occupancy:\n%s", probe.rob)
}
