// Package ddg builds the data dependence graphs the paper's analysis runs
// on (section 4.1: "Within each loop and DAG the DDG is constructed and its
// edges labelled with the latencies of the instructions"). Graphs are built
// over an instruction sequence — a basic block or a linearised loop body —
// with true (register def-use) dependences. Loop graphs additionally carry
// edges around the back edge with iteration distance 1, which is what makes
// cyclic dependence sets (CDSs, section 4.3) visible as strongly connected
// components.
package ddg

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// Edge is a dependence from the producer node From to the consumer node To.
// Latency is the producer's operation latency; Distance is the iteration
// distance (0 = same iteration, 1 = carried around the loop back edge).
type Edge struct {
	From, To int
	Latency  int
	Distance int
}

// Graph is a dependence graph over a fixed instruction sequence. Node i
// corresponds to Insts[i]. NOOPs (including hint NOOPs) are excluded when
// the graph is built, since they never issue.
type Graph struct {
	Insts []prog.Inst
	Out   [][]Edge
	In    [][]Edge
}

// N returns the node count.
func (g *Graph) N() int { return len(g.Insts) }

func realInsts(insts []prog.Inst) []prog.Inst {
	out := make([]prog.Inst, 0, len(insts))
	for _, in := range insts {
		if in.Op.Class() != isa.ClassNop {
			out = append(out, in)
		}
	}
	return out
}

func newGraph(insts []prog.Inst) *Graph {
	return &Graph{
		Insts: insts,
		Out:   make([][]Edge, len(insts)),
		In:    make([][]Edge, len(insts)),
	}
}

func (g *Graph) addEdge(e Edge) {
	g.Out[e.From] = append(g.Out[e.From], e)
	g.In[e.To] = append(g.In[e.To], e)
}

// BuildBlock builds the intra-block dependence graph of a basic block:
// true register dependences only, distance 0. The paper's analysis assumes
// memory accesses hit in cache and carries no memory dependences
// (section 4.2), so loads and stores participate only through their
// address and value registers.
func BuildBlock(insts []prog.Inst) *Graph {
	g := newGraph(realInsts(insts))
	lastDef := map[isa.Reg]int{}
	for i := range g.Insts {
		in := &g.Insts[i]
		for _, s := range in.Sources() {
			if p, ok := lastDef[s]; ok {
				g.addEdge(Edge{From: p, To: i, Latency: g.Insts[p].Op.Latency()})
			}
		}
		if in.HasDst() {
			lastDef[in.Dst] = i
		}
	}
	return g
}

// BuildLoop builds the dependence graph of a linearised loop body,
// including loop-carried edges with distance 1: a source with no earlier
// definition in the body but a later one depends on that definition from
// the previous iteration. Multi-block bodies are treated as straight-line
// code in layout order, a conservative summary of the paper's per-loop
// analysis.
func BuildLoop(body []prog.Inst) *Graph {
	g := newGraph(realInsts(body))
	// Final definition of each register anywhere in the body, for the
	// wrap-around edges.
	finalDef := map[isa.Reg]int{}
	for i := range g.Insts {
		if g.Insts[i].HasDst() {
			finalDef[g.Insts[i].Dst] = i
		}
	}
	lastDef := map[isa.Reg]int{}
	for i := range g.Insts {
		in := &g.Insts[i]
		for _, s := range in.Sources() {
			if p, ok := lastDef[s]; ok {
				g.addEdge(Edge{From: p, To: i, Latency: g.Insts[p].Op.Latency()})
			} else if p, ok := finalDef[s]; ok {
				g.addEdge(Edge{From: p, To: i, Latency: g.Insts[p].Op.Latency(), Distance: 1})
			}
		}
		if in.HasDst() {
			lastDef[in.Dst] = i
		}
	}
	return g
}

// SCCs returns the strongly connected components of the graph (all edge
// distances considered) in Tarjan order (reverse topological). Components
// are the paper's cyclic dependence sets when they contain a cycle; use
// CyclicSCCs to filter.
func (g *Graph) SCCs() [][]int {
	n := g.N()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	next := 0

	// Iterative Tarjan to survive large generated bodies.
	type frame struct{ v, ei int }
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{root, 0}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.Out[f.v]) {
				w := g.Out[f.v][f.ei].To
				f.ei++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			dfs(v)
		}
	}
	return comps
}

// CyclicSCCs returns only the components that contain a dependence cycle:
// more than one node, or a single node with a self edge. These are the
// paper's cyclic dependence sets.
func (g *Graph) CyclicSCCs() [][]int {
	var out [][]int
	for _, c := range g.SCCs() {
		if len(c) > 1 {
			out = append(out, c)
			continue
		}
		v := c[0]
		for _, e := range g.Out[v] {
			if e.To == v {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// RecurrenceII returns the minimum initiation interval imposed by the
// dependence cycles through the given component: the maximum over simple
// cycles of ceil(total latency / total distance). It is computed with the
// standard iterative algorithm (binary search is unnecessary at our sizes:
// we enumerate cycles via DFS limited to the component, which the small
// CDS sizes keep cheap) — here approximated by Howard-style value
// iteration on the cycle ratio, which is exact for integer latencies.
func (g *Graph) RecurrenceII(comp []int) int {
	inComp := map[int]bool{}
	for _, v := range comp {
		inComp[v] = true
	}
	// Iterate Bellman-Ford style on t[v] with the constraint
	// t[to] >= t[from] + lat - II*dist; the smallest II with no positive
	// cycle is the recurrence II. Search II upward from 1; latencies are
	// small so the loop terminates quickly.
	maxLat := 1
	for _, v := range comp {
		for _, e := range g.Out[v] {
			if inComp[e.To] && e.Latency > maxLat {
				maxLat = e.Latency
			}
		}
	}
	sumLat := 0
	for _, v := range comp {
		for _, e := range g.Out[v] {
			if inComp[e.To] {
				sumLat += e.Latency
			}
		}
	}
	for ii := 1; ii <= sumLat+maxLat; ii++ {
		if !g.hasPositiveCycle(comp, inComp, ii) {
			return ii
		}
	}
	return sumLat + maxLat
}

func (g *Graph) hasPositiveCycle(comp []int, inComp map[int]bool, ii int) bool {
	t := map[int]int{}
	for _, v := range comp {
		t[v] = 0
	}
	for iter := 0; iter <= len(comp); iter++ {
		changed := false
		for _, v := range comp {
			for _, e := range g.Out[v] {
				if !inComp[e.To] {
					continue
				}
				nt := t[v] + e.Latency - ii*e.Distance
				if nt > t[e.To] {
					t[e.To] = nt
					changed = true
				}
			}
		}
		if !changed {
			return false
		}
	}
	return true
}
