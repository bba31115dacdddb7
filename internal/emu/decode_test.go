package emu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// decodeDiffCap bounds the dynamic records compared per program: enough
// to wrap short loops many times and cross every block boundary shape,
// small enough for the fuzzer to stay fast.
const decodeDiffCap = 4_000

// diffStreams runs p on the decoded emulator and on the reference
// interpreter and requires the two dynamic streams identical record by
// record, plus matching final architectural state.
func diffStreams(t *testing.T, p *prog.Program, restart bool, budget int) {
	t.Helper()
	ed, err := New(p)
	if err != nil {
		return
	}
	er := newRef(p)
	ed.Restart, er.Restart = restart, restart
	// The decoded emulator fills one record for the whole run, as the
	// simulator's fetch queue and the sampled engine do, so a field it
	// leaves over from the previous instruction diverges from the
	// reference's fresh record.
	var dd trace.DynInst
	for i := 0; i < budget; i++ {
		okd := ed.NextInto(&dd)
		dr, okr := er.Next()
		if okd != okr {
			t.Fatalf("record %d: decoded ok=%v, reference ok=%v", i, okd, okr)
		}
		if !okd {
			break
		}
		if dd != dr {
			t.Fatalf("record %d diverges:\ndecoded:   %+v\nreference: %+v", i, dd, dr)
		}
	}
	if ed.Halted() != er.Halted() || ed.Seq() != er.Seq() {
		t.Fatalf("final state diverges: decoded halt=%v seq=%d, reference halt=%v seq=%d",
			ed.Halted(), ed.Seq(), er.Halted(), er.Seq())
	}
	for r := 0; r < 8; r++ {
		if ed.IntReg(r) != er.IntReg(r) {
			t.Fatalf("r%d diverges: decoded %d, reference %d", r, ed.IntReg(r), er.IntReg(r))
		}
	}
}

// TestDecodeDifferential holds the decoded emulator and the reference
// interpreter to identical streams on every registered workload, with
// and without Restart wraparound.
func TestDecodeDifferential(t *testing.T) {
	for _, b := range workload.Suite() {
		p := b.Build(42)
		t.Run(b.Name, func(t *testing.T) {
			diffStreams(t, p, true, decodeDiffCap)
			diffStreams(t, p, false, decodeDiffCap)
		})
	}
}

// callProg builds parser: its first call retires at record 9 and its
// call stack reaches depth 2, so the checkpoint tests below see
// non-empty stacks (gzip and crafty make no call in their first 20,000
// records).
func callProg(t *testing.T) *prog.Program {
	t.Helper()
	b, ok := workload.ByName("parser")
	if !ok {
		t.Fatal("parser not registered")
	}
	return b.Build(42)
}

// TestDecodeCheckpointRoundTrip proves a checkpoint taken mid-loop with
// a non-empty call stack restores identically into the decoded emulator
// and the reference interpreter, and that both continue exactly as the
// checkpointed emulator does: the wire representation carries the whole
// control state.
func TestDecodeCheckpointRoundTrip(t *testing.T) {
	p := callProg(t)
	e := MustNew(p)
	e.Restart = true
	for i := 0; i < 12_000; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatal("halted early")
		}
	}
	c := e.Checkpoint()
	if len(c.stack) == 0 {
		t.Fatal("checkpoint has an empty call stack; the test needs one taken inside a call")
	}

	dec, err := NewFromCheckpoint(p, c)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(p)
	if err := ref.Restore(c); err != nil {
		t.Fatal(err)
	}
	dec.Restart, ref.Restart = true, true
	want := collect(t, e, 5_000)
	if got := collect(t, dec, 5_000); !reflect.DeepEqual(got, want) {
		t.Fatal("decoded emulator restored from the checkpoint diverges from the original")
	}
	if got := collect(t, ref, 5_000); !reflect.DeepEqual(got, want) {
		t.Fatal("reference interpreter restored from the checkpoint diverges from the original")
	}
}

// TestDecodeHandOffMidStream hands execution back and forth between the
// decoded emulator and the reference interpreter every 7 records, by
// checkpointing the one running and restoring into the other, and
// requires the stream to match an all-reference run: Checkpoint and
// Restore must convert between flat and structural control state
// losslessly at any point, including inside calls.
func TestDecodeHandOffMidStream(t *testing.T) {
	type interpreter interface {
		trace.Stream
		Checkpoint() Checkpoint
		Restore(Checkpoint) error
	}
	p := callProg(t)
	dec, ref, all := MustNew(p), newRef(p), newRef(p)
	dec.Restart, ref.Restart, all.Restart = true, true, true
	interps := [2]interpreter{dec, ref}
	cur, inCall := 0, 0
	var dh trace.DynInst
	for i := 0; i < decodeDiffCap; i++ {
		if i%7 == 0 {
			c := interps[cur].Checkpoint()
			if len(c.stack) > 0 {
				inCall++
			}
			cur = 1 - cur
			if err := interps[cur].Restore(c); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		interps[cur].NextInto(&dh)
		dr, _ := all.Next()
		if dh != dr {
			t.Fatalf("record %d diverges after hand-offs:\nhanded off: %+v\nreference:  %+v", i, dh, dr)
		}
	}
	if inCall == 0 {
		t.Fatal("no hand-off happened inside a call")
	}
}

// FuzzDecodeDifferential feeds arbitrary assembly through the decoded
// emulator and the reference interpreter and requires identical
// trace.DynInst sequences — the decoded switch is a deliberate duplicate
// of the reference semantics, and this is the harness that keeps the two
// from drifting. Seeds cover the shapes the dispatch table specializes:
// short loops wrapped many times, self-modifying-shaped programs (stores
// aimed at low/code addresses — the ISA executes from the immutable
// program image, so both paths must shrug them off identically), call
// stacks across procedure boundaries, and div/rem poison values.
func FuzzDecodeDifferential(f *testing.F) {
	f.Add(`program shortloop
proc main entry
  li r1, 3
.top:
  addi r2, r2, 1
  rem r3, r2, r1
  bne r3, r1, .top
  halt
endproc
`)
	f.Add(`program selfmod
data 7 7 7 7
proc main entry
  li r1, 0
.w:
  st r1, 0(r1)
  st r1, 4(r1)
  addi r1, r1, 8
  slti r2, r1, 64
  bne r2, r0, .w
  ld r3, 8(r0)
  jmp .out
.out:
  halt
endproc
`)
	f.Add(`program divpoison
proc main entry
  li r1, -9223372036854775808
  li r2, -1
  div r3, r1, r2
  rem r4, r1, r2
  div r5, r1, r0
  rem r6, r1, r0
  itof f1, r2
  fdiv f2, f1, f0
  ftoi r7, f2
  halt
endproc
`)
	f.Add(`program callwrap
proc leaf
  addi r9, r9, 1
  ret
endproc
proc main entry
  li r8, 2
.l:
  call leaf
  calllib leaf
  sub r8, r8, r9
  bge r8, r0, .l
  ret
endproc
`)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		p, err := prog.ParseAsm(strings.NewReader(src))
		if err != nil {
			return
		}
		if p.NumInsts() == 0 || p.NumInsts() > 2_000 || len(p.Data) > 1<<14 {
			return
		}
		// Restart wraps short programs through finish() repeatedly — the
		// highest-traffic edge the decoded path handles specially.
		diffStreams(t, p, true, decodeDiffCap)
		diffStreams(t, p, false, decodeDiffCap)
	})
}
