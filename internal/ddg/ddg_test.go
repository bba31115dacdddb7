package ddg

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/prog"
)

func inst3(op isa.Op, d, a, b int) prog.Inst {
	in := prog.NewInst(op)
	in.Dst, in.Src1, in.Src2 = isa.R(d), isa.R(a), isa.R(b)
	return in
}

func instImm(op isa.Op, d, a int, imm int64) prog.Inst {
	in := prog.NewInst(op)
	in.Dst, in.Src1, in.Imm = isa.R(d), isa.R(a), imm
	return in
}

// figure1Block is the paper's figure 1(a):
//
//	a: add r1, 1, r1   b: add r2, 2, r2   c: mul r1, 5, r3
//	d: mul r2, 5, r4   e: add r3, r4, r5  f: add r2, r4, r6
func figure1Block() []prog.Inst {
	return []prog.Inst{
		instImm(isa.Addi, 1, 1, 1), // a
		instImm(isa.Addi, 2, 2, 2), // b
		instImm(isa.Muli, 3, 1, 5), // c
		instImm(isa.Muli, 4, 2, 5), // d
		inst3(isa.Add, 5, 3, 4),    // e
		inst3(isa.Add, 6, 2, 4),    // f
	}
}

func TestBuildBlockFigure1(t *testing.T) {
	g := BuildBlock(figure1Block())
	if g.N() != 6 {
		t.Fatalf("nodes = %d, want 6", g.N())
	}
	// Expected edges (paper figure 1(b)): a->c, b->d, b->f, c->e, d->e, d->f.
	want := map[[2]int]bool{
		{0, 2}: true, {1, 3}: true, {1, 5}: true,
		{2, 4}: true, {3, 4}: true, {3, 5}: true,
	}
	got := map[[2]int]bool{}
	for v := range g.Out {
		for _, e := range g.Out[v] {
			got[[2]int{e.From, e.To}] = true
			if e.Distance != 0 {
				t.Errorf("block graph has carried edge %v", e)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("edges = %v, want %v", got, want)
	}
	for e := range want {
		if !got[e] {
			t.Errorf("missing edge %v", e)
		}
	}
	// Multiply latency labels the mul producers' out-edges.
	for _, e := range g.Out[2] {
		if e.Latency != isa.Muli.Latency() {
			t.Errorf("c out-edge latency %d, want %d", e.Latency, isa.Muli.Latency())
		}
	}
}

// figure4Loop is the paper's figure 4: a self-recurrent chain
//
//	a: a_i = a_{i-1}+1; b = a+1; c = b+1; d = b+1; e = d+1; f = c+1
func figure4Loop() []prog.Inst {
	return []prog.Inst{
		instImm(isa.Addi, 1, 1, 1), // a (self-recurrent)
		instImm(isa.Addi, 2, 1, 1), // b = a+1
		instImm(isa.Addi, 3, 2, 1), // c = b+1
		instImm(isa.Addi, 4, 2, 1), // d = b+1
		instImm(isa.Addi, 5, 4, 1), // e = d+1
		instImm(isa.Addi, 6, 3, 1), // f = c+1
	}
}

func TestBuildLoopFigure4(t *testing.T) {
	g := BuildLoop(figure4Loop())
	// a reads r1 with no earlier def -> carried self edge.
	var self *Edge
	for i := range g.Out[0] {
		if g.Out[0][i].To == 0 {
			self = &g.Out[0][i]
		}
	}
	if self == nil || self.Distance != 1 {
		t.Fatalf("missing carried self edge on a: %+v", g.Out[0])
	}
	sccs := g.CyclicSCCs()
	if len(sccs) != 1 || len(sccs[0]) != 1 || sccs[0][0] != 0 {
		t.Fatalf("CDS = %v, want [[0]]", sccs)
	}
	if ii := g.RecurrenceII(sccs[0]); ii != 1 {
		t.Errorf("II = %d, want 1", ii)
	}
}

func TestCarriedCrossDependence(t *testing.T) {
	// x uses y's value from the previous iteration and vice versa:
	//   p: r1 = r2 + 1
	//   q: r2 = r1 + 1   (same iteration: q depends on p)
	// p's read of r2 is carried from q. SCC = {p,q}, II = 2 (two 1-cycle ops
	// around a distance-1 cycle).
	body := []prog.Inst{
		instImm(isa.Addi, 1, 2, 1),
		instImm(isa.Addi, 2, 1, 1),
	}
	g := BuildLoop(body)
	sccs := g.CyclicSCCs()
	if len(sccs) != 1 || len(sccs[0]) != 2 {
		t.Fatalf("SCCs = %v, want one of size 2", sccs)
	}
	if ii := g.RecurrenceII(sccs[0]); ii != 2 {
		t.Errorf("II = %d, want 2", ii)
	}
}

func TestRecurrenceIIWithLatency(t *testing.T) {
	// Self-recurrent multiply: II = mul latency (3).
	body := []prog.Inst{instImm(isa.Muli, 1, 1, 3)}
	g := BuildLoop(body)
	sccs := g.CyclicSCCs()
	if len(sccs) != 1 {
		t.Fatalf("SCCs = %v", sccs)
	}
	if ii := g.RecurrenceII(sccs[0]); ii != 3 {
		t.Errorf("II = %d, want 3", ii)
	}
}

func TestNopsExcluded(t *testing.T) {
	insts := []prog.Inst{
		prog.NewInst(isa.Nop),
		instImm(isa.Addi, 1, 1, 1),
		func() prog.Inst { h := prog.NewInst(isa.HintNop); h.Imm = 4; return h }(),
		instImm(isa.Addi, 2, 1, 1),
	}
	g := BuildBlock(insts)
	if g.N() != 2 {
		t.Fatalf("nodes = %d, want 2 (nops excluded)", g.N())
	}
	if len(g.Out[0]) != 1 || g.Out[0][0].To != 1 {
		t.Errorf("dependence lost across removed nops: %v", g.Out[0])
	}
}

func TestZeroRegisterCreatesNoEdges(t *testing.T) {
	insts := []prog.Inst{
		inst3(isa.Add, 0, 1, 2), // writes r0: discarded
		inst3(isa.Add, 3, 0, 1), // reads r0: no dependence
	}
	g := BuildBlock(insts)
	if len(g.Out[0]) != 0 {
		t.Errorf("write to r0 must not produce dependences: %v", g.Out[0])
	}
}

func TestSCCsPartitionNodes(t *testing.T) {
	f := func(seed uint16) bool {
		// Random chain with random extra deps: SCCs must partition nodes.
		n := int(seed%17) + 2
		var body []prog.Inst
		for i := 0; i < n; i++ {
			src := 1 + (int(seed)+i*7)%(i+1) // some earlier or same reg
			body = append(body, instImm(isa.Addi, 1+i%8, src%8+1, 1))
		}
		g := BuildLoop(body)
		seen := make([]int, g.N())
		for _, c := range g.SCCs() {
			for _, v := range c {
				seen[v]++
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBlockGraphIsAcyclic(t *testing.T) {
	f := func(seed uint16) bool {
		n := int(seed%17) + 2
		var body []prog.Inst
		for i := 0; i < n; i++ {
			body = append(body, inst3(isa.Add, 1+(i*3)%8, 1+i%8, 1+(i*5)%8))
		}
		g := BuildBlock(body)
		// Every edge goes forward in program order -> acyclic.
		for v := range g.Out {
			for _, e := range g.Out[v] {
				if e.To <= e.From {
					return false
				}
			}
		}
		return len(g.CyclicSCCs()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
