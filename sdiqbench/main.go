// Command sdiqbench is the repository's benchmark. It runs one named
// workload against the simulator stack for a fixed time, checks every
// simulated cell against references stored beside it, and prints its
// metrics by name with their units: the end-to-end metrics by default,
// or, with -trace 1, the per-layer metrics of a traced run of the same
// workload and seed. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it
// first:
//
//	bash sdiqbench/run.sh --workload figure_suite --seed 42 --seconds 20 --trace 0
//
// The workloads are figure_suite, sweep_sampled and service_mix; "all"
// runs the three in turn. WORKLOADS.md says why each exists and what
// each metric should move. The stored references in refs/ are
// regenerated, once, with
//
//	bash sdiqbench/run.sh -regen sdiqbench/refs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart stands in for process start in the set-up metric:
// package variables are initialised before main runs.
var processStart = time.Now()

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds int
	traced  bool
	work    string  // scratch root for caches, stores and trace files
	slots   int     // simulation slots: one per CPU
	size    *sizing // workload scale
	machine machine // fingerprint stamped into every record
}

var workloadNames = []string{"figure_suite", "sweep_sampled", "service_mix"}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*outcome, error){
	"figure_suite":  figureSuite.run,
	"sweep_sampled": sweepSampled.run,
	"service_mix":   runService,
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 42, "workload seed; it drives the generated campaign specs")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run that reports per-layer metrics")
	work := flag.String("work", ".bench_build", "scratch directory for caches, stores and trace files")
	regen := flag.String("regen", "", "regenerate the stored references into this directory, then exit")
	commit := flag.String("commit", "unknown", "commit being measured, for the record")
	dirty := flag.Bool("dirty", false, "the measured work tree has uncommitted changes, for the record")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	if *regen != "" {
		if err := regenerate(ctx, *regen, runtime.NumCPU()); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	opt := options{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		work:    *work,
		slots:   runtime.NumCPU(),
		size:    &fullSize,
		machine: fingerprint(*commit, *dirty),
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (want %s, or all)", name, strings.Join(workloadNames, ", ")))
		}
		out, err := run(ctx, opt)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if err := report(os.Stdout, name, opt, out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdiqbench:", err)
	os.Exit(1)
}
