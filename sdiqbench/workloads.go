package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/campaign"
	"repro/internal/workload"
)

// generatorSeed is the synthetic-benchmark generator seed every workload
// pins: the paper evaluation's (campaign.DefaultSpec). The workload seed
// drives everything around it — job order, the service's campaign
// stream — so each cell's result depends on the cell alone and the
// stored references hold for every workload seed.
const generatorSeed = 42

// sizing is the scale of the three workloads. The benchmark runs
// fullSize, the only scale the stored references describe; the
// self-tests run toySize.
type sizing struct {
	benchmarks    []string // suite subset every workload draws from
	figureBudget  int64    // instructions per exact figure-suite job
	sweepBudget   int64    // instructions per sampled sweep cell
	serviceBudget int64    // instructions per sampled service cell
	refs          bool     // the stored references apply
}

var (
	fullSize = sizing{
		benchmarks:    suiteNames(),
		figureBudget:  500_000,
		sweepBudget:   10_000_000,
		serviceBudget: 3_000_000,
		refs:          true,
	}
	toySize = sizing{
		benchmarks:    []string{"gzip", "mcf"},
		figureBudget:  20_000,
		sweepBudget:   400_000,
		serviceBudget: 400_000,
	}
)

// sparseRegime is the checkpoint store's acceptance regime: 2k-instruction
// windows every 200k instructions, after 20k of functional warming and a
// 1k pipeline fill.
var sparseRegime = campaign.Sampling{Window: 2_000, Period: 200_000, Warmup: 20_000, DetailWarmup: 1_000}

// iqSizes are the static issue-queue sizes of the sweep examples/iqsweep
// adds to the paper, as the checkpoint acceptance sweep runs them.
var iqSizes = []int{16, 24, 32, 40, 48, 56, 64, 80}

// robSizes widen service_mix's cell pool: each (benchmark, ROB size)
// pair holds one IQ sweep, enough fresh cells for a whole run.
var robSizes = []int{32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 256}

func suiteNames() []string {
	var names []string
	for _, b := range workload.Suite() {
		names = append(names, b.Name)
	}
	return names
}

// shuffled returns a seeded permutation of xs; a nil rng keeps the order.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// sampled returns a copy of the sparse regime for one spec.
func sampled() *campaign.Sampling {
	r := sparseRegime
	return &r
}

// figureSpec is the paper's evaluation grid — every benchmark under all
// five techniques, exact — in a seeded job order.
func (z *sizing) figureSpec(rng *rand.Rand) campaign.Spec {
	spec := campaign.DefaultSpec(z.figureBudget)
	spec.Name = "figure-suite"
	spec.Seed = generatorSeed
	spec.Benchmarks = shuffled(rng, z.benchmarks)
	spec.Techniques = shuffled(rng, campaign.AllTechniques())
	return spec
}

// sweepSpec is the sampled static IQ sweep: the baseline at every IQ
// size on every benchmark, the sizes in seeded order. The benchmarks
// keep the suite's order, which is the order of the lockstep batches:
// with eleven unequal batches on two slots, a seeded batch order would
// move the campaign's makespan by more than a change worth measuring.
func (z *sizing) sweepSpec(rng *rand.Rand) campaign.Spec {
	spec := campaign.DefaultSpec(z.sweepBudget)
	spec.Name = "sweep-sampled"
	spec.Seed = generatorSeed
	spec.Benchmarks = z.benchmarks
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: shuffled(rng, iqSizes)}}
	spec.Sampling = sampled()
	return spec
}

// serviceSpec is a sampled baseline sweep of the given benchmarks over
// IQ and ROB sizes: one service_mix campaign, or its whole cell pool.
func (z *sizing) serviceSpec(name string, benches []string, iq, rob []int) campaign.Spec {
	spec := campaign.DefaultSpec(z.serviceBudget)
	spec.Name = name
	spec.Seed = generatorSeed
	spec.Benchmarks = benches
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	spec.Axes = []campaign.Axis{{Name: "iq.entries", Values: iq}, {Name: "robsize", Values: rob}}
	spec.Sampling = sampled()
	return spec
}

// poolSpec is every cell service_mix can request; the stored reference
// covers all of them.
func (z *sizing) poolSpec() campaign.Spec {
	return z.serviceSpec("service-pool", z.benchmarks, iqSizes, robSizes)
}

// serviceStream generates service_mix's campaigns from the seed. Each
// is one benchmark × three IQ sizes × one ROB size. The first campaign
// of a (benchmark, ROB size) pair asks for three IQ sizes never
// requested before; later ones for two fresh sizes and one already
// requested (one fresh and two once a single fresh size is left). About
// a third of requested cells thus repeat an earlier request — served
// from the cache, or shared with an execution in flight — while every
// campaign still carries fresh cells to lease. Two campaigns in three
// revisit a pair already started, when one is open. The stream ends
// when no pair has a fresh size left.
func (z *sizing) serviceStream(seed int64) []campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		bench string
		rob   int
		asked map[int]bool
	}
	var pairs []*pair
	for _, b := range z.benchmarks {
		for _, r := range robSizes {
			pairs = append(pairs, &pair{bench: b, rob: r, asked: map[int]bool{}})
		}
	}
	var specs []campaign.Spec
	for {
		var open, started []*pair
		for _, p := range pairs {
			if len(p.asked) < len(iqSizes) {
				open = append(open, p)
				if len(p.asked) > 0 {
					started = append(started, p)
				}
			}
		}
		if len(open) == 0 {
			return specs
		}
		from := open
		if len(started) > 0 && rng.Intn(3) < 2 {
			from = started
		}
		p := from[rng.Intn(len(from))]
		var fresh, old []int
		for _, v := range iqSizes {
			if p.asked[v] {
				old = append(old, v)
			} else {
				fresh = append(fresh, v)
			}
		}
		rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		rng.Shuffle(len(old), func(i, j int) { old[i], old[j] = old[j], old[i] })
		var iq []int
		switch {
		case len(old) == 0:
			iq = []int{fresh[0], fresh[1], fresh[2]}
		case len(fresh) >= 2:
			iq = []int{fresh[0], fresh[1], old[0]}
		default:
			iq = []int{fresh[0], old[0], old[1]}
		}
		for _, v := range iq {
			p.asked[v] = true
		}
		sort.Ints(iq)
		name := fmt.Sprintf("mix-%04d", len(specs))
		specs = append(specs, z.serviceSpec(name, []string{p.bench}, iq, []int{p.rob}))
	}
}
