package main

import (
	"sort"
	"strings"
	"time"
)

// Span is one interval of a traced run, recorded from the benchmark's
// side of the program: around a call into a public function, between
// two hook calls, or placed from a duration a result carries. Times are
// nanoseconds from the trace's epoch.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a top-level span
	Trace  string `json:"trace"`            // the campaign or lease it belongs to
	Name   string `json:"name"`             // "<layer>.<operation>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose length is inferred from other timings
	// (see WORKLOADS.md) rather than timed.
	Derived bool `json:"derived,omitempty"`
}

// layers are the stack layers self time is reported for, named after
// the packages that implement them.
var layers = []string{"campaign", "workload", "core", "sim", "sample", "emu", "ckpt", "serve", "worker"}

func (s Span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []Span
}

// ns converts a time to the trace clock.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its ID for children to name as parent.
// Children are always added after their parent.
func (t *tracer) add(parent int, trace, name string, start, end int64, derived bool) int {
	if end < start {
		end = start
	}
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start, End: end, Derived: derived,
	})
	return len(t.spans)
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(spans []Span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		if a, b := max(s.Start, lo), min(s.End, hi); a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		if x[1] <= cur {
			continue
		}
		total += x[1] - max(x[0], cur)
		cur = x[1]
	}
	return total
}

// slotTime splits the slot time of a pass — wall × slots — into each
// layer's self time (span minus its children's coverage), measured
// idle, and what no span explains.
type slotTime struct {
	total, idle int64
	self        map[string]int64
}

// account sums self time by layer over the spans that occupy a slot
// (tops) and all their descendants.
func (t *tracer) account(tops map[int]bool, total, idle int64) slotTime {
	kids := map[int][]Span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	st := slotTime{total: total, idle: idle, self: map[string]int64{}}
	in := map[int]bool{}
	for _, s := range t.spans {
		if !tops[s.ID] && !in[s.Parent] {
			continue
		}
		in[s.ID] = true
		st.self[s.layer()] += s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return st
}

func (st slotTime) unexplained() int64 {
	u := st.total - st.idle
	for _, v := range st.self {
		u -= v
	}
	return u
}

// report records the accounting as per-layer metrics: each layer's self
// time, idle and unexplained time as shares of slot time.
func (st slotTime) report(o *outcome) {
	share := func(ns int64) float64 { return float64(ns) / float64(max(st.total, 1)) }
	for _, l := range layers {
		o.layer("self."+l+"_frac", share(st.self[l]))
	}
	o.layer("trace.idle_frac", share(st.idle))
	o.layer("trace.unexplained_frac", share(st.unexplained()))
}

// tailIdle is the slot time a campaign leaves unused once its last unit
// has started: slots that ran out of work wait for the slowest unit.
func tailIdle(units []Span, end int64, slots int) int64 {
	var last int64
	for _, u := range units {
		last = max(last, u.Start)
	}
	var busy int64
	for _, u := range units {
		busy += max(0, min(u.End, end)-max(u.Start, last))
	}
	return (end-last)*int64(slots) - busy
}

func msNS(ms float64) int64 { return int64(ms * 1e6) }

func nsMS(ns int64) float64 { return float64(ns) / 1e6 }
