package campaign

import (
	"encoding/json"
	"math"
	"math/big"
	"strings"
	"testing"
)

// exactCount is the job count of a valid spec in arbitrary precision:
// the oracle JobCount's overflow check is held to.
func exactCount(s *Spec) *big.Int {
	n := big.NewInt(int64(len(s.benchmarks())))
	n.Mul(n, big.NewInt(int64(len(s.techniques()))))
	for _, ax := range s.Axes {
		n.Mul(n, big.NewInt(int64(len(ax.Values))))
	}
	return n
}

// overflowSpec sweeps five axes of 10,000 values each: 11 × 5 × 10^20
// jobs, which no int holds, from a body of about 300 KB.
func overflowSpec() Spec {
	spec := DefaultSpec(1000)
	for _, name := range []string{"robsize", "lsqsize", "fetchqueuesize", "memports", "issuewidth"} {
		ax := Axis{Name: name, Values: make([]int, 10_000)}
		for i := range ax.Values {
			ax.Values[i] = i + 1
		}
		spec.Axes = append(spec.Axes, ax)
	}
	return spec
}

// smallOverflowSpec sweeps sixteen axes of sixteen values each: 11 × 5
// × 16^16 jobs, which no int holds, from a body of about 2.4 KB, small
// enough that a fuzzer spends its time mutating it, not minimizing it.
func smallOverflowSpec() Spec {
	spec := DefaultSpec(1000)
	names := []string{"robsize", "lsqsize", "fetchqueuesize", "memports"}
	for i := 0; i < 16; i++ {
		ax := Axis{Name: names[i%len(names)], Values: make([]int, 16)}
		for v := range ax.Values {
			ax.Values[v] = v + 1
		}
		spec.Axes = append(spec.Axes, ax)
	}
	return spec
}

// TestJobCountMatchesJobs: on small specs the count is exactly the
// expansion's length, and invalid specs fail the same way in both.
func TestJobCountMatchesJobs(t *testing.T) {
	sweep := DefaultSpec(1000)
	sweep.Benchmarks = []string{"gzip", "mcf", "gzip"}
	sweep.Axes = []Axis{
		{Name: "iq.entries", Values: []int{16, 32, 48}},
		{Name: "fetchwidth", Values: []int{4, 8}},
	}
	unknown := DefaultSpec(1000)
	unknown.Axes = []Axis{{Name: "warp.speed", Values: []int{9}}}
	empty := DefaultSpec(1000)
	empty.Axes = []Axis{{Name: "robsize"}}

	for name, spec := range map[string]Spec{
		"default": DefaultSpec(1000),
		"sweep":   sweep,
		"unknown": unknown,
		"empty":   empty,
	} {
		n, err := spec.JobCount()
		jobs, jerr := spec.Jobs()
		if (err == nil) != (jerr == nil) {
			t.Errorf("%s: JobCount error %v, Jobs error %v", name, err, jerr)
			continue
		}
		if err == nil && n != len(jobs) {
			t.Errorf("%s: JobCount = %d, len(Jobs()) = %d", name, n, len(jobs))
		}
	}

	for name, spec := range map[string]Spec{
		"five axes of 10,000 values":     overflowSpec(),
		"sixteen axes of sixteen values": smallOverflowSpec(),
	} {
		if n, err := spec.JobCount(); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s: JobCount = %d, %v; want an overflow error", name, n, err)
		}
	}
}

// FuzzSpecJobCount decodes its input as a JSON spec, as sdiqd decodes a
// tenant's submission, and checks the bounded expansion behind
// admission: JobCount never panics, it returns the exact product of the
// list lengths or an error when that product overflows int, and a
// count small enough to expand is what Jobs expands to. Its overflowing
// seed is smallOverflowSpec, not the ~300 KB overflowSpec: a short run
// would spend its seconds minimizing mutants of a large seed.
func FuzzSpecJobCount(f *testing.F) {
	sweep := DefaultSpec(1000)
	sweep.Benchmarks = []string{"gzip", "mcf"}
	sweep.Axes = []Axis{
		{Name: "iq.entries", Values: []int{16, 32, 48}},
		{Name: "robsize", Values: []int{64, 128}},
	}
	for _, spec := range []Spec{DefaultSpec(1000), sweep, smallOverflowSpec()} {
		blob, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	maxInt := big.NewInt(math.MaxInt)
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		n, err := spec.JobCount()
		if verr := spec.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("JobCount = %d for a spec Validate refuses: %v", n, verr)
			}
			return
		}
		want := exactCount(&spec)
		if want.Cmp(maxInt) > 0 {
			if err == nil {
				t.Fatalf("JobCount = %d for a product of %v, want an overflow error", n, want)
			}
			return
		}
		if err != nil || int64(n) != want.Int64() {
			t.Fatalf("JobCount = %d, %v; want %v", n, err, want)
		}
		if n > 4096 {
			return
		}
		jobs, err := spec.Jobs()
		if err != nil {
			// The one refusal JobCount leaves to Jobs: a point whose issue
			// queue is not a multiple of its bank size.
			if !strings.Contains(err.Error(), "issue queue") {
				t.Fatalf("Jobs refuses a spec JobCount counts: %v", err)
			}
			return
		}
		if len(jobs) != n {
			t.Fatalf("JobCount = %d, len(Jobs()) = %d", n, len(jobs))
		}
	})
}
