// Package workload generates the benchmark programs for the evaluation.
// The paper runs the SPEC2000 integer suite (minus eon) compiled with
// MachineSUIF; SPEC sources are proprietary and SUIF cannot be rerun
// here, so each benchmark is replaced by a synthetic program *in our ISA*
// whose microarchitectural character mimics its namesake — loop structure,
// ILP profile, call density, control regularity and memory behaviour (see
// README "Fidelity notes"). Generators are deterministic in their seed.
package workload

import (
	"math/rand"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Benchmark names one SPECint-like workload.
type Benchmark struct {
	Name string
	// Description states which trait of the original the generator
	// reproduces.
	Description string
	Build       func(seed int64) *prog.Program
}

// Suite returns the paper's benchmark list (SPEC2000int minus eon), in
// the order of the paper's figures.
func Suite() []Benchmark {
	return []Benchmark{
		{"gzip", "loop-dominated compression kernel, sequential access, medium ILP", Gzip},
		{"vpr", "nested placement loops, multiply-heavy inner kernels", Vpr},
		{"gcc", "large irregular control flow, many short blocks and paths", Gcc},
		{"mcf", "pointer-chasing network simplex, memory-bound, low ILP", Mcf},
		{"crafty", "bitboard chess: shifts and masks, branchy search", Crafty},
		{"parser", "recursive-descent linking, data-dependent branches, calls", Parser},
		{"perlbmk", "interpreter dispatch loop, many-way branching, calls", Perlbmk},
		{"gap", "computer-algebra arithmetic kernels with helper calls", Gap},
		{"vortex", "OO database: dense small-procedure call chains", Vortex},
		{"bzip2", "block-sort compression with hot mul-heavy helpers", Bzip2},
		{"twolf", "place-and-route with mixed-latency arithmetic", Twolf},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// --- shared generator helpers ---

// gen wraps a builder with a seeded RNG.
type gen struct {
	b   *prog.Builder
	rng *rand.Rand
}

func newGen(name string, seed int64) *gen {
	return &gen{b: prog.NewBuilder(name), rng: rand.New(rand.NewSource(seed))}
}

// Register conventions used by the generators: r1-r9 loop control and
// addresses, r10-r25 computation, r26-r29 xorshift state and scratch,
// r30-r31 spare. Procedures communicate via r10-r15.

// emitXorshift advances a pseudo-random value in reg using scratch.
func (g *gen) emitXorshift(reg, scratch isa.Reg) {
	g.b.Shli(scratch, reg, 13).Xor(reg, reg, scratch).
		Shri(scratch, reg, 7).Xor(reg, reg, scratch).
		Shli(scratch, reg, 17).Xor(reg, reg, scratch)
}

// emitALUBurst emits n independent single-cycle ops over regs [lo,hi].
func (g *gen) emitALUBurst(n int, lo, hi int) {
	for i := 0; i < n; i++ {
		r := isa.R(lo + g.rng.Intn(hi-lo+1))
		switch g.rng.Intn(4) {
		case 0:
			g.b.Addi(r, r, int64(1+g.rng.Intn(7)))
		case 1:
			g.b.Xori(r, r, int64(g.rng.Intn(255)))
		case 2:
			g.b.Shli(r, r, int64(1+g.rng.Intn(3)))
		default:
			g.b.Andi(r, r, int64(0xffff))
		}
	}
}

// emitChain emits a serial dependence chain of length n on reg.
func (g *gen) emitChain(n int, reg isa.Reg) {
	for i := 0; i < n; i++ {
		g.b.Addi(reg, reg, int64(1+i%3))
	}
}

// emitMulTree emits a small multiply tree: pairs multiplied then combined.
func (g *gen) emitMulTree(dst isa.Reg, lo int) {
	a, b, c, d := isa.R(lo), isa.R(lo+1), isa.R(lo+2), isa.R(lo+3)
	g.b.Mul(a, a, b).Mul(c, c, d).Add(dst, a, c)
}

// ringData builds a pointer ring of n words with the given stride and
// returns its base address.
func ringData(b *prog.Builder, n, stride int64) uint64 {
	base := b.AppendData() // address of the next data word
	data := make([]int64, n)
	for i := int64(0); i < n; i++ {
		next := (i + stride) % n
		data[i] = int64(base) + next*8
	}
	b.AppendData(data...)
	return base
}

// tableData builds n words of deterministic values.
func tableData(b *prog.Builder, n int64, f func(i int64) int64) uint64 {
	data := make([]int64, n)
	for i := int64(0); i < n; i++ {
		data[i] = f(i)
	}
	return b.AppendData(data...)
}
