package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// put records a metric; a value that is not a number reads as 0 so the
// output stays valid JSON.
func put(m map[string]metric, name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// outcome is what one workload run measured and checked.
type outcome struct {
	// attempted counts operations: cells requested plus campaigns.
	// failed counts failed jobs and campaigns, cells whose digest missed
	// the reference, refused requests and failed leases. Their ratio is
	// error_rate.
	attempted, failed int64
	// endToEnd holds the BENCHMARK.json end-to-end metrics, measured
	// untraced; extra the other end-to-end figures the record carries;
	// perLayer the traced run's per-layer metrics.
	endToEnd, extra, perLayer map[string]metric
	// notes qualify numbers: which percentile a tail is, sample counts,
	// what is derived rather than timed.
	notes map[string]string
	check *verifier
	spans []Span
}

func newOutcome(ref *reference) *outcome {
	return &outcome{
		endToEnd: map[string]metric{},
		extra:    map[string]metric{},
		perLayer: map[string]metric{},
		notes:    map[string]string{},
		check:    newVerifier(ref),
	}
}

// layer records a per-layer metric under the unit the benchmark
// declares for it.
func (o *outcome) layer(name string, v float64) {
	put(o.perLayer, name, v, perLayerUnits[name])
}

// tailMetric records the tail of a latency sample and notes which
// percentile it is and over how many samples.
func tailMetric(m map[string]metric, notes map[string]string, name string, xs []float64, unit string) {
	v, pct := tail(xs)
	put(m, name, v, unit)
	notes[name] = fmt.Sprintf("p%.1f of %d samples", pct, len(xs))
}

// machine fingerprints where a record was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func fingerprint(commit string, dirty bool) machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit,
		Dirty:      dirty,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// peakRSSMB is the process's peak resident memory in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples above it, and which percentile that is. Below twenty samples
// that percentile would not reach the median, so the maximum stands in
// (percentile 100).
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 20 {
		return s[n-1], 100
	}
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recordSchema names the record layout: v2 is bench_simcore/v1's record
// plus the machine fingerprint.
const recordSchema = "sdiqbench/v2"

type record struct {
	Schema     string            `json:"schema"`
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	Machine    machine           `json:"machine"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Cells      int               `json:"cells"`
	Digest     string            `json:"digest"`
	Mismatches []string          `json:"mismatches,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      map[string]string `json:"notes,omitempty"`
	TraceFile  string            `json:"trace_file,omitempty"`
}

// report prints a run: every metric by name with its unit, the notes,
// the record line (fingerprint, digest, every metric), and last the one
// JSON line the benchmark contract reads — the end-to-end metrics, or
// on a traced run the per-layer ones.
func report(w io.Writer, name string, opt options, out *outcome) error {
	put(out.extra, "error_rate", float64(out.failed)/float64(max(out.attempted, 1)), "fraction")
	all := map[string]metric{}
	for _, m := range []map[string]metric{out.endToEnd, out.extra, out.perLayer} {
		for k, v := range m {
			all[k] = v
		}
	}
	for _, k := range sortedKeys(all) {
		fmt.Fprintf(w, "%s %-32s %14.6g %s\n", name, k, all[k].Value, all[k].Unit)
	}
	for _, k := range sortedKeys(out.notes) {
		fmt.Fprintf(w, "%s note %s: %s\n", name, k, out.notes[k])
	}
	rec := record{
		Schema:     recordSchema,
		Workload:   name,
		Seed:       opt.seed,
		Seconds:    opt.seconds,
		Traced:     opt.traced,
		Machine:    opt.machine,
		Correct:    out.failed == 0,
		Attempted:  out.attempted,
		Failed:     out.failed,
		Cells:      len(out.check.seen),
		Digest:     out.check.digest(),
		Mismatches: out.check.mismatches,
		Metrics:    all,
		Notes:      out.notes,
	}
	if opt.traced {
		path, err := writeSpans(opt.work, name, opt.seed, out.spans)
		if err != nil {
			return err
		}
		rec.TraceFile = path
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", line)
	shown := out.endToEnd
	if opt.traced {
		shown = out.perLayer
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, shown})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// writeSpans writes a traced run's spans as JSON under the scratch
// directory and returns the file's path.
func writeSpans(work, name string, seed int64, spans []Span) (string, error) {
	dir := filepath.Join(work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	return path, os.WriteFile(path, blob, 0o644)
}
