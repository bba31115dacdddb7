// Command sdiq runs the paper's evaluation: every table and figure of
// "Software Directed Issue Queue Power Reduction" (HPCA 2005), on the
// synthetic SPECint-like suite. All simulation goes through the campaign
// engine (internal/campaign): runs execute on a cancellable parallel
// worker pool, optionally sweep configuration axes, cache per-run
// results on disk, and export for re-plotting without re-simulating.
//
// Usage:
//
//	sdiq [-experiment all|table1|table2|fig6|fig7|fig8|fig9|fig10|fig11|fig12|summary|sweep]
//	     [-budget N] [-seed N] [-parallel N] [-format table|csv]
//	     [-config cfg.json] [-dumpconfig]
//	     [-sweep "axis=v1,v2,...;axis=..."] [-cache DIR] [-ckpt DIR]
//	     [-sample on|window/period/warmup|window=N,period=N,...]
//	     [-remote http://host:port]
//	     [-export FILE.json|FILE.csv] [-load FILE.json]
//	     [-cpuprofile FILE] [-memprofile FILE]
//
// The budget is the number of committed (real) instructions per run; the
// paper uses 100M, the default here is 500k which reproduces the same
// shape in seconds. A JSON config file overrides table-1 parameters
// (emit a template with -dumpconfig).
//
// -sample switches every run to the sampled-simulation engine
// (internal/sample): detailed windows every period instructions with
// functional warming between them, ~5-6x faster than exact at well under
// 1% mean IPC error with the default regime (-sample on). Results carry
// confidence intervals, printed after the figures and exported in the
// CSV; sampling parameters are part of the campaign cache key, so
// sampled and exact results never mix in -cache.
//
// -sweep runs the grid at every point of the axis cross product, e.g.
// -sweep "iq.entries=16,32,48,64,80" simulates all techniques at five
// static queue sizes. -cache makes re-runs of any unchanged cell
// near-instant. -ckpt adds the checkpoint artifact store to sampled
// sweeps: cells that share a warming identity (same benchmark, cache
// geometry, predictor config and sampling regime — IQ/power axes
// excluded) reuse one functional-warming pass, bit-identically.
// -export saves the campaign (spec + results); -load renders
// tables/figures from a saved campaign without simulating.
//
// Sampled sweep cells that share a warming identity always execute
// locally as one lockstep unit: a single emulator + functional-warming
// stream fans each detailed window out to every cell's detailed core,
// so the grid pays the shared functional work once instead of once per
// cell. Results, caching and exports are bit-identical to per-cell
// execution; exact runs are unaffected, and it composes with -ckpt (a
// warm-resumed unit reads the artifact once).
//
// -remote executes the campaign on a sdiqd campaign service instead of
// in-process: the spec is POSTed to the server, jobs run on its shared
// executor and cache (deduplicated against every other client's
// in-flight jobs), progress streams back, and tables/figures/exports
// render locally from the server's result set — byte-identical to a
// local run. Every experiment and sweep flag combines with -remote;
// -parallel and -cache are then server-side concerns and ignored.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the whole
// campaign, including the worker pool), so simulator performance work can
// be diagnosed with `go tool pprof` without editing code.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/exp"
	"repro/internal/serve"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, table1, table2, fig6..fig12, summary, sweep")
	budget := flag.Int64("budget", 500_000, "committed instructions per run")
	seed := flag.Int64("seed", 42, "workload generator seed")
	parallel := flag.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "output format: table or csv")
	configPath := flag.String("config", "", "JSON processor configuration overriding table 1")
	dumpConfig := flag.Bool("dumpconfig", false, "print the default configuration as JSON and exit")
	sweepFlag := flag.String("sweep", "",
		fmt.Sprintf("config axes to sweep, e.g. \"iq.entries=16,32,48,64,80\" (axes: %s)",
			strings.Join(campaign.AxisNames(), ", ")))
	cacheDir := flag.String("cache", "", "directory for the on-disk result cache")
	ckptDir := flag.String("ckpt", "",
		"directory for the checkpoint artifact store (sampled sweeps share one warming pass per grid)")
	sampleFlag := flag.String("sample", "",
		"sampled simulation: \"on\" for the default regime, \"window/period/warmup\" or \"window=N,period=N,warmup=N,detailwarmup=N\" (empty = exact)")
	remote := flag.String("remote", "",
		"run campaigns on a sdiqd campaign service at this base URL instead of in-process")
	token := flag.String("token", os.Getenv("SDIQ_TOKEN"),
		"tenant bearer token for -remote (default $SDIQ_TOKEN; required when the server runs -auth)")
	exportPath := flag.String("export", "", "write the campaign to FILE (.json or .csv)")
	loadPath := flag.String("load", "", "load a saved campaign JSON instead of simulating")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE at exit")
	flag.Parse()

	setupProfiles(*cpuProfile, *memProfile)
	defer flushProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	spec := campaign.DefaultSpec(*budget)
	spec.Seed = *seed
	// Listed explicitly rather than left empty ("all"), so that exports
	// carry the technique list.
	spec.Techniques = campaign.AllTechniques()
	// An explicitly requested store that cannot open is an error, not a
	// silent warm-from-scratch run: the user asked for shared warming and
	// should learn they aren't getting it.
	store, err := ckpt.Open(*ckptDir)
	if err != nil {
		fail(fmt.Errorf("-ckpt %s: %w", *ckptDir, err))
	}
	run := (&campaign.Engine{Workers: *parallel, CacheDir: *cacheDir, Ckpt: store, Lockstep: true}).Run
	if *remote != "" {
		client := serve.NewClient(*remote)
		client.Token = *token
		client.OnEvent = func(ev serve.Event) {
			if ev.Type == serve.EventSubmitted {
				fmt.Fprintf(os.Stderr, "sdiq: remote campaign %s on %s\n", ev.Campaign, *remote)
			}
		}
		run = client.Run
	}
	if spec.Sampling, err = campaign.ParseSampling(*sampleFlag); err != nil {
		fail(err)
	}

	if *dumpConfig {
		if err := exp.WriteConfig(os.Stdout, spec.Base); err != nil {
			fail(err)
		}
		return
	}
	name := strings.ToLower(*experiment)
	fig := slices.IndexFunc(exp.Figures, func(f exp.Figure) bool { return f.Name == name })
	if fig < 0 && !slices.Contains([]string{"all", "table1", "table2", "sweep"}, name) {
		fmt.Fprintf(os.Stderr, "sdiq: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fail(err)
		}
		spec.Base, err = exp.LoadConfig(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}
	csv := false
	switch *format {
	case "table":
	case "csv":
		csv = true
	default:
		fail(fmt.Errorf("unknown format %q", *format))
	}
	axes, err := campaign.ParseAxes(*sweepFlag)
	if err != nil {
		fail(err)
	}

	var rs *campaign.ResultSet
	var s *exp.SuiteResults
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fail(err)
		}
		rs, err = campaign.ReadJSON(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		// Everything but a sweep renders from the loaded base grid,
		// tables 1 and 2 included.
		if name != "sweep" {
			if s, err = exp.FromCampaign(rs); err != nil {
				fail(err)
			}
			spec = rs.Spec
		}
	}

	// Tables 1 and 2 need no simulation: they render the campaign's
	// configuration and seed.
	switch name {
	case "table1":
		fmt.Print(exp.Table1(spec.Base))
		return
	case "table2":
		fmt.Print(exp.Table2(spec.Seed))
		return
	}

	if len(axes) > 0 && name != "sweep" {
		fail(fmt.Errorf("-sweep only combines with -experiment sweep (figures need a base grid); got -experiment %s", name))
	}
	if name == "sweep" {
		if rs == nil {
			spec.Name = "sweep"
			spec.Axes = axes
			if rs, err = run(ctx, spec); err != nil {
				fail(err)
			}
		}
		if csv {
			if err := rs.WriteCSV(os.Stdout); err != nil {
				fail(err)
			}
		} else {
			fmt.Print(exp.SweepReport(rs))
		}
		export(*exportPath, rs)
		return
	}

	if s == nil {
		if rs, err = run(ctx, spec); err != nil {
			fail(err)
		}
		if s, err = exp.FromCampaign(rs); err != nil {
			fail(err)
		}
	}
	if fig < 0 {
		fmt.Print(exp.AllFigures(s, csv))
	} else {
		fmt.Print(exp.Figures[fig].Render(s, csv))
	}
	export(*exportPath, rs)
}

// export writes the campaign to path, as JSON or CSV by extension.
func export(path string, rs *campaign.ResultSet) {
	if path == "" {
		return
	}
	if rs == nil {
		fail(fmt.Errorf("nothing to export"))
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	switch {
	case strings.HasSuffix(path, ".csv"):
		err = rs.WriteCSV(f)
	default:
		err = rs.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
}

// flushProfiles stops the CPU profile and writes the heap profile; it is
// a no-op until setupProfiles installs it. fail() must call it because
// os.Exit skips defers — a profile of a run that errored or was
// interrupted is often exactly the one wanted.
var flushProfiles = func() {}

// setupProfiles starts the requested pprof collection and installs
// flushProfiles (idempotent, so the deferred call and a fail() can race
// harmlessly).
func setupProfiles(cpuPath, memPath string) {
	if cpuPath == "" && memPath == "" {
		return
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		cpuFile = f
	}
	var once sync.Once
	flushProfiles = func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "sdiq: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "sdiq: %v\n", err)
				}
			}
		})
	}
}

func fail(err error) {
	flushProfiles()
	fmt.Fprintf(os.Stderr, "sdiq: %v\n", err)
	os.Exit(1)
}
