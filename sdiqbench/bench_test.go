package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/campaign"
)

// The self-tests run every workload at toy scale for a second; none of
// them needs the stored references.

func toyOptions(t *testing.T, traced bool) options {
	return options{seed: 7, seconds: 1, traced: traced, work: t.TempDir(), slots: 2, size: &toySize}
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("%s: missing %s", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	var extra []string
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: metrics BENCHMARK.json does not declare: %v", what, extra)
	}
}

// TestWorkloadsEmitContractMetrics: each workload reports exactly the
// metric names BENCHMARK.json declares — the end-to-end set untraced,
// the per-layer set traced — with no failed operation.
func TestWorkloadsEmitContractMetrics(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			out, err := workloads[name](context.Background(), toyOptions(t, traced))
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed; notes %v", name, traced, out.failed, out.attempted, out.notes)
			}
			if traced {
				sameNames(t, name+" traced", out.perLayer, perLayer)
			} else {
				sameNames(t, name, out.endToEnd, endToEnd)
			}
			for k, m := range out.endToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, want > 0", name, k, m.Value)
				}
			}
		}
	}
}

// TestPerturbedResultCaught: one Stats field changed before digesting
// fails the check, against the reference and against an earlier
// delivery of the same cell.
func TestPerturbedResultCaught(t *testing.T) {
	spec := toySize.figureSpec(nil)
	spec.Benchmarks = spec.Benchmarks[:1]
	rs, err := (&campaign.Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceOf("figure_suite", spec.Budget, rs)
	v := newVerifier(ref)
	for i := range rs.Results {
		if !v.check(&rs.Results[i]) {
			t.Fatalf("unperturbed %s rejected", cellID(&rs.Results[i]))
		}
	}
	bad := rs.Results[0]
	bad.Stats.Mispredicts++
	if newVerifier(ref).check(&bad) {
		t.Error("a perturbed result matched its reference")
	}
	repeat := newVerifier(nil)
	repeat.check(&rs.Results[0])
	if repeat.check(&bad) {
		t.Error("a perturbed repeat matched the cell's first delivery")
	}
	bad.StartedAt, bad.GenMS = rs.Results[1].StartedAt, 1e9
	bad.Stats = rs.Results[0].Stats
	if !newVerifier(ref).check(&bad) {
		t.Error("wall-clock fields changed the digest")
	}
}

// TestServiceCountersAddUp: on service_mix every requested cell is
// executed, served from the cache or shared in flight; every execution
// ran on the fleet or locally; and nothing was requeued, fell back or
// was refused.
func TestServiceCountersAddUp(t *testing.T) {
	out, err := runService(context.Background(), toyOptions(t, true))
	if err != nil {
		t.Fatal(err)
	}
	m := func(name string) float64 { return out.perLayer[name].Value }
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got := m("serve.jobs_executed") + m("serve.cache_hits") + m("serve.dedup_hits"); !near(got, m("serve.cells_requested")) || got == 0 {
		t.Errorf("executed + cache + dedup = %g per campaign, requested %g", got, m("serve.cells_requested"))
	}
	if got := m("serve.jobs_remote") + m("serve.jobs_local"); !near(got, m("serve.jobs_executed")) {
		t.Errorf("remote + local = %g per campaign, executed %g", got, m("serve.jobs_executed"))
	}
	for _, name := range []string{"serve.lease_requeues", "serve.jobs_fellback", "auth.failures"} {
		if m(name) != 0 {
			t.Errorf("%s = %g, want 0", name, m(name))
		}
	}
	if m("serve.cache_hits")+m("serve.dedup_hits") == 0 {
		t.Error("no cell repeated an earlier request")
	}
}

func TestTailAndCoverage(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %g at p%g, want 30 at p75 (ten samples above)", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %g at p%g, want the maximum", v, pct)
	}
	spans := []Span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}}
	if got := covered(spans, 2, 35); got != 23 {
		t.Errorf("covered = %d, want 23", got)
	}
	units := []Span{{Start: 0, End: 50}, {Start: 10, End: 100}}
	if got := tailIdle(units, 100, 2); got != 50 {
		t.Errorf("tailIdle = %d, want 50 (one slot idle from 50 to 100)", got)
	}
}
