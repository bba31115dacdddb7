package trace

import "testing"

// sliceStream adapts a slice to a Stream.
type sliceStream struct {
	insts []DynInst
	pos   int
}

func (s *sliceStream) NextInto(d *DynInst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*d = s.insts[s.pos]
	s.pos++
	return true
}

// limit wraps a stream and cuts it after n instructions.
type limit struct {
	s Stream
	n int64
}

func (l *limit) NextInto(d *DynInst) bool {
	if l.n <= 0 {
		return false
	}
	l.n--
	return l.s.NextInto(d)
}

// drain counts the records a stream yields into one reused record.
func drain(s Stream) int {
	var d DynInst
	n := 0
	for s.NextInto(&d) {
		n++
	}
	return n
}

func TestSliceStream(t *testing.T) {
	s := &sliceStream{insts: []DynInst{{Seq: 0}, {Seq: 1}}}
	var d DynInst
	if ok := s.NextInto(&d); !ok || d.Seq != 0 {
		t.Fatalf("first = %v,%v", d, ok)
	}
	if ok := s.NextInto(&d); !ok || d.Seq != 1 {
		t.Fatalf("second = %v,%v", d, ok)
	}
	if s.NextInto(&d) {
		t.Error("exhausted stream must return false")
	}
}

func TestLimit(t *testing.T) {
	if n := drain(&limit{s: &sliceStream{insts: make([]DynInst, 10)}, n: 3}); n != 3 {
		t.Errorf("limit yielded %d, want 3", n)
	}
	// Limit larger than the stream drains naturally.
	if n := drain(&limit{s: &sliceStream{insts: make([]DynInst, 2)}, n: 100}); n != 2 {
		t.Errorf("oversized limit yielded %d, want 2", n)
	}
}

// countingStream records how many times NextInto is called — for
// verifying wrappers do not pull past exhaustion.
type countingStream struct {
	calls int
	n     int
}

func (c *countingStream) NextInto(d *DynInst) bool {
	c.calls++
	if c.n <= 0 {
		return false
	}
	c.n--
	*d = DynInst{}
	return true
}

// TestStreamContract pins the Stream contract the simulator and the
// sampled-simulation engine rely on: once NextInto returns false it
// keeps returning false, and an exhausted limit never touches the
// wrapped stream again.
func TestStreamContract(t *testing.T) {
	var d DynInst
	s := &sliceStream{insts: []DynInst{{Seq: 5}}}
	s.NextInto(&d)
	for i := 0; i < 3; i++ {
		if s.NextInto(&d) {
			t.Fatal("exhausted sliceStream yielded an instruction")
		}
	}
	inner := &countingStream{n: 10}
	l := &limit{s: inner, n: 2}
	l.NextInto(&d)
	l.NextInto(&d)
	before := inner.calls
	for i := 0; i < 3; i++ {
		if l.NextInto(&d) {
			t.Fatal("exhausted limit yielded an instruction")
		}
	}
	if inner.calls != before {
		t.Errorf("exhausted limit pulled %d extra records from the inner stream",
			inner.calls-before)
	}
}

// TestStreamMidSequence pins that nothing in the record contract assumes
// Seq starts at 0: a stream resuming mid-run (a restored checkpoint, a
// sample window) carries arbitrary starting sequence numbers.
func TestStreamMidSequence(t *testing.T) {
	s := &sliceStream{insts: []DynInst{{Seq: 1 << 40}, {Seq: 1<<40 + 1}}}
	var d DynInst
	if ok := s.NextInto(&d); !ok || d.Seq != 1<<40 {
		t.Fatalf("mid-sequence first record = %v,%v", d, ok)
	}
	l := &limit{s: s, n: 1}
	if ok := l.NextInto(&d); !ok || d.Seq != 1<<40+1 {
		t.Fatalf("mid-sequence limited record = %v,%v", d, ok)
	}
}
