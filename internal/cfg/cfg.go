// Package cfg provides the control-flow analyses the paper's compiler pass
// needs (section 4.1): dominator computation, natural-loop identification
// with proper nesting (an inner loop's blocks are analysed once, in the
// inner loop only), and decomposition of the remaining blocks into DAGs
// that start at the procedure entry or immediately after a procedure call.
package cfg

import (
	"sort"

	"repro/internal/prog"
)

// Dominators holds the immediate-dominator tree of a procedure's CFG.
// Idom[b] is the immediate dominator of block b; the entry block's idom is
// itself. Unreachable blocks have Idom -1.
type Dominators struct {
	Idom []int
}

// ComputeDominators computes dominators with the Cooper/Harvey/Kennedy
// iterative algorithm over a reverse postorder.
func ComputeDominators(p *prog.Proc) *Dominators {
	n := len(p.Blocks)
	rpo := ReversePostorder(p)
	order := make([]int, n) // block -> rpo position; -1 if unreachable
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, pred := range p.Blocks[b].Preds {
				if idom[pred] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = pred
				} else {
					newIdom = intersect(idom, order, pred, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return &Dominators{Idom: idom}
}

func intersect(idom, order []int, a, b int) int {
	for a != b {
		for order[a] > order[b] {
			a = idom[a]
		}
		for order[b] > order[a] {
			b = idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b.
func (d *Dominators) Dominates(a, b int) bool {
	if d.Idom[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return false
		}
		b = d.Idom[b]
	}
}

// ReversePostorder returns the reachable blocks of p in reverse postorder
// (entry first, predecessors generally before successors).
func ReversePostorder(p *prog.Proc) []int {
	n := len(p.Blocks)
	seen := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range p.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Loop is one natural loop of a procedure. Blocks is sorted ascending and
// includes the header. Exclusive holds the blocks belonging to this loop
// but not to any nested inner loop — those are the blocks the paper's loop
// analysis owns (section 4.1: inner loops are considered separately).
type Loop struct {
	Header    int
	Blocks    []int
	Exclusive []int
	Parent    int // index into Loops; -1 for top-level loops
	Depth     int // 1 = outermost
}

// Analysis bundles the control-flow structure of one procedure: its
// dominator tree, natural loops (inner loops first), and the DAG regions
// covering all blocks not owned by any loop.
type Analysis struct {
	Proc  *prog.Proc
	Dom   *Dominators
	Loops []*Loop
	// LoopOf maps each block to the index of the innermost loop owning
	// it, or -1 if the block belongs to a DAG region.
	LoopOf []int
	// DAGs are the maximal regions of non-loop blocks, each starting at
	// the procedure entry or the block after a call, in layout order.
	DAGs [][]int
}

// Analyze computes the full control-flow structure of a procedure.
func Analyze(p *prog.Proc) *Analysis {
	dom := ComputeDominators(p)
	loops := findLoops(p, dom)
	loopOf := make([]int, len(p.Blocks))
	for i := range loopOf {
		loopOf[i] = -1
	}
	// Loops are sorted inner-first (by block count ascending), so the
	// first loop claiming a block is the innermost.
	for li, l := range loops {
		for _, b := range l.Blocks {
			if loopOf[b] == -1 {
				loopOf[b] = li
			}
		}
	}
	for li, l := range loops {
		for _, b := range l.Blocks {
			if loopOf[b] == li {
				l.Exclusive = append(l.Exclusive, b)
			}
		}
	}
	nestLoops(loops)
	return &Analysis{
		Proc:   p,
		Dom:    dom,
		Loops:  loops,
		LoopOf: loopOf,
		DAGs:   findDAGs(p, loopOf),
	}
}

// findLoops identifies natural loops from back edges (edge t->h where h
// dominates t), merging loops that share a header.
func findLoops(p *prog.Proc, dom *Dominators) []*Loop {
	byHeader := map[int]map[int]bool{}
	for _, b := range p.Blocks {
		for _, s := range b.Succs {
			if dom.Dominates(s, b.ID) {
				body := byHeader[s]
				if body == nil {
					body = map[int]bool{s: true}
					byHeader[s] = body
				}
				collectLoop(p, body, b.ID)
			}
		}
	}
	var loops []*Loop
	for h, body := range byHeader {
		l := &Loop{Header: h, Parent: -1}
		for b := range body {
			l.Blocks = append(l.Blocks, b)
		}
		sort.Ints(l.Blocks)
		loops = append(loops, l)
	}
	// Inner loops (fewer blocks) first; ties by header for determinism.
	sort.Slice(loops, func(i, j int) bool {
		if len(loops[i].Blocks) != len(loops[j].Blocks) {
			return len(loops[i].Blocks) < len(loops[j].Blocks)
		}
		return loops[i].Header < loops[j].Header
	})
	return loops
}

// collectLoop walks predecessors from the back-edge tail until the header.
func collectLoop(p *prog.Proc, body map[int]bool, tail int) {
	if body[tail] {
		return
	}
	body[tail] = true
	stack := []int{tail}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pred := range p.Blocks[b].Preds {
			if !body[pred] {
				body[pred] = true
				stack = append(stack, pred)
			}
		}
	}
}

func nestLoops(loops []*Loop) {
	contains := func(outer, inner *Loop) bool {
		m := map[int]bool{}
		for _, b := range outer.Blocks {
			m[b] = true
		}
		for _, b := range inner.Blocks {
			if !m[b] {
				return false
			}
		}
		return true
	}
	for i, l := range loops {
		// The smallest strictly-larger loop containing l is its parent;
		// loops are sorted by size so scan forward.
		for j := i + 1; j < len(loops); j++ {
			if len(loops[j].Blocks) > len(l.Blocks) && contains(loops[j], l) {
				l.Parent = j
				break
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != -1; p = loops[p].Parent {
			d++
		}
		l.Depth = d
	}
}

// findDAGs groups non-loop blocks into DAG regions. A region starts at the
// procedure entry or at a block whose layout predecessor ends in a call
// (paper section 4.1), and extends in layout order over consecutive
// non-loop blocks.
func findDAGs(p *prog.Proc, loopOf []int) [][]int {
	var dags [][]int
	var cur []int
	flush := func() {
		if len(cur) > 0 {
			dags = append(dags, cur)
			cur = nil
		}
	}
	for i, b := range p.Blocks {
		if loopOf[i] != -1 {
			flush()
			continue
		}
		if i > 0 {
			prev := p.Blocks[i-1]
			if last := prev.Last(); last != nil && last.Op.IsCall() {
				flush() // a new DAG starts immediately after a call
			}
		}
		cur = append(cur, b.ID)
	}
	flush()
	return dags
}

// BackEdgePreds returns the predecessors of the loop header that are
// inside the loop (back edges), and those outside (entry edges).
func (l *Loop) BackEdgePreds(p *prog.Proc) (inside, outside []int) {
	in := map[int]bool{}
	for _, b := range l.Blocks {
		in[b] = true
	}
	for _, pred := range p.Blocks[l.Header].Preds {
		if in[pred] {
			inside = append(inside, pred)
		} else {
			outside = append(outside, pred)
		}
	}
	return inside, outside
}
