package cfg

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/prog"
)

// diamond builds: entry -> (then | else) -> join -> exit.
func diamond(t *testing.T) *prog.Proc {
	t.Helper()
	b := prog.NewBuilder("diamond")
	b.Proc("main").Entry().
		Blt(isa.R(1), isa.R(2), "thenB").
		Label("elseB").Addi(isa.R(3), isa.R(3), 1).Jmp("join").
		Label("thenB").Addi(isa.R(3), isa.R(3), 2).
		Label("join").Addi(isa.R(4), isa.R(3), 0).
		Halt()
	p := b.MustBuild()
	return p.Procs[0]
}

// nestedLoops builds a doubly nested loop:
//
//	outer header -> inner header -> inner body (back to inner) -> outer latch
//	(back to outer) -> exit.
func nestedLoops(t *testing.T) *prog.Proc {
	t.Helper()
	b := prog.NewBuilder("nest")
	b.Proc("main").Entry().
		Li(isa.R(1), 0).
		Label("outer").
		Li(isa.R(2), 0).
		Label("inner").
		Addi(isa.R(2), isa.R(2), 1).
		Blt(isa.R(2), isa.R(9), "inner").
		Addi(isa.R(1), isa.R(1), 1).
		Blt(isa.R(1), isa.R(8), "outer").
		Halt()
	return b.MustBuild().Procs[0]
}

func TestDominatorsDiamond(t *testing.T) {
	p := diamond(t)
	d := ComputeDominators(p)
	// Entry dominates everything.
	for b := range p.Blocks {
		if !d.Dominates(0, b) {
			t.Errorf("entry must dominate block %d", b)
		}
	}
	// Join block: find the block labelled "join" — neither arm dominates it.
	var join, thenB, elseB int
	for _, blk := range p.Blocks {
		switch blk.Label {
		case "join":
			join = blk.ID
		case "thenB":
			thenB = blk.ID
		case "elseB":
			elseB = blk.ID
		}
	}
	if d.Dominates(thenB, join) || d.Dominates(elseB, join) {
		t.Errorf("neither arm may dominate the join")
	}
	if d.Idom[join] != 0 {
		t.Errorf("idom(join) = %d, want 0", d.Idom[join])
	}
}

func TestDominatorsProperties(t *testing.T) {
	p := nestedLoops(t)
	d := ComputeDominators(p)
	// Property: every reachable block is dominated by its idom, and the
	// idom chain reaches the entry.
	for b := range p.Blocks {
		if d.Idom[b] == -1 {
			continue
		}
		if !d.Dominates(d.Idom[b], b) {
			t.Errorf("idom(%d)=%d does not dominate %d", b, d.Idom[b], b)
		}
		steps := 0
		for x := b; x != 0; x = d.Idom[x] {
			if steps++; steps > len(p.Blocks) {
				t.Fatalf("idom chain from %d does not reach entry", b)
			}
		}
	}
}

func TestNestedLoopDetection(t *testing.T) {
	p := nestedLoops(t)
	a := Analyze(p)
	if len(a.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(a.Loops))
	}
	inner, outer := a.Loops[0], a.Loops[1]
	if len(inner.Blocks) >= len(outer.Blocks) {
		t.Fatalf("loops not sorted inner-first: %d vs %d blocks", len(inner.Blocks), len(outer.Blocks))
	}
	if inner.Parent != 1 {
		t.Errorf("inner.Parent = %d, want 1", inner.Parent)
	}
	if outer.Parent != -1 {
		t.Errorf("outer.Parent = %d, want -1", outer.Parent)
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths = %d,%d want 2,1", inner.Depth, outer.Depth)
	}
	// Exclusive blocks partition: inner blocks not in outer's exclusive set.
	for _, b := range inner.Blocks {
		for _, e := range outer.Exclusive {
			if e == b {
				t.Errorf("block %d owned by both loops", b)
			}
		}
	}
	// LoopOf of the inner header is the inner loop.
	if a.LoopOf[inner.Header] != 0 {
		t.Errorf("LoopOf(inner header) = %d, want 0", a.LoopOf[inner.Header])
	}
}

func TestDAGsSplitAtCalls(t *testing.T) {
	b := prog.NewBuilder("dags")
	b.Proc("main").Entry().
		Addi(isa.R(1), isa.R(1), 1).
		Call("f").
		Addi(isa.R(2), isa.R(2), 1).
		Addi(isa.R(3), isa.R(3), 1).
		Call("f").
		Addi(isa.R(4), isa.R(4), 1).
		Halt()
	b.Proc("f").Ret()
	p := b.MustBuild().Procs[0]
	a := Analyze(p)
	if len(a.Loops) != 0 {
		t.Fatalf("unexpected loops: %d", len(a.Loops))
	}
	// Regions: [entry, callblock], [after-call1, callblock2], [after-call2..halt].
	if len(a.DAGs) != 3 {
		t.Fatalf("DAGs = %v, want 3 regions", a.DAGs)
	}
	if a.DAGs[0][0] != 0 {
		t.Errorf("first DAG must start at entry")
	}
}

func TestDAGsExcludeLoopBlocks(t *testing.T) {
	p := nestedLoops(t)
	a := Analyze(p)
	for _, dag := range a.DAGs {
		for _, b := range dag {
			if a.LoopOf[b] != -1 {
				t.Errorf("DAG contains loop block %d", b)
			}
		}
	}
	// Every block is either in a loop or in exactly one DAG.
	seen := make([]int, len(p.Blocks))
	for _, dag := range a.DAGs {
		for _, b := range dag {
			seen[b]++
		}
	}
	for b := range p.Blocks {
		inLoop := a.LoopOf[b] != -1
		if inLoop && seen[b] != 0 {
			t.Errorf("loop block %d also in a DAG", b)
		}
		if !inLoop && seen[b] != 1 {
			t.Errorf("non-loop block %d in %d DAGs", b, seen[b])
		}
	}
}

func TestLoopEdgesAndExits(t *testing.T) {
	p := nestedLoops(t)
	a := Analyze(p)
	outer := a.Loops[1]
	inside, outside := outer.BackEdgePreds(p)
	if len(inside) != 1 || len(outside) != 1 {
		t.Fatalf("outer header preds: inside=%v outside=%v", inside, outside)
	}
}

func TestReversePostorderProperty(t *testing.T) {
	// For DAG-shaped (acyclic) CFGs every edge goes forward in RPO.
	p := diamond(t)
	rpo := ReversePostorder(p)
	pos := map[int]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	for _, blk := range p.Blocks {
		for _, s := range blk.Succs {
			if pos[s] <= pos[blk.ID] {
				t.Errorf("edge %d->%d not forward in RPO", blk.ID, s)
			}
		}
	}
}

// TestRandomChainPrograms exercises dominator invariants on generated
// straight-line programs with random forward branches.
func TestRandomChainPrograms(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%13) + 3
		b := prog.NewBuilder("rand")
		pb := b.Proc("main").Entry()
		for i := 0; i < n; i++ {
			pb.Addi(isa.R(1), isa.R(1), 1)
			if (seed>>(i%24))&1 == 1 && i < n-1 {
				pb.Blt(isa.R(1), isa.R(2), labelFor(i+1))
			}
			pb.Label(labelFor(i + 1))
		}
		pb.Halt()
		p, err := b.Build()
		if err != nil {
			return true // builder rejected a degenerate shape; fine
		}
		pr := p.Procs[0]
		d := ComputeDominators(pr)
		// Entry dominates all reachable blocks; idom is a proper dominator.
		for blk := range pr.Blocks {
			if d.Idom[blk] == -1 {
				continue
			}
			if !d.Dominates(0, blk) {
				return false
			}
			if blk != 0 && !d.Dominates(d.Idom[blk], blk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func labelFor(i int) string {
	return "L" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}
