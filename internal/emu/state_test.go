package emu

import (
	"bytes"
	"testing"

	"repro/internal/prog"
	"repro/internal/workload"
)

// run builds the gzip workload and executes steps instructions.
func run(t *testing.T, steps int) *Emulator {
	t.Helper()
	b, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("no gzip workload")
	}
	e, err := New(b.Build(7))
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	for i := 0; i < steps; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatalf("halted after %d instructions", i)
		}
	}
	return e
}

func TestCheckpointMarshalRoundTrip(t *testing.T) {
	e := run(t, 5000)
	ck := e.Checkpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(data, e.prog)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&ck) {
		t.Fatal("deserialized checkpoint differs from original")
	}
	// Identical state must serialize to identical bytes (sorted pages,
	// fixed layout) — what content addressing relies on.
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-serialization is not byte-identical")
	}
}

// TestCheckpointResumeEquivalence: an emulator resumed from a
// deserialized checkpoint must emit exactly the dynamic instruction
// stream the original emits from the same point.
func TestCheckpointResumeEquivalence(t *testing.T) {
	e := run(t, 5000)
	orig := e.Checkpoint()
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := UnmarshalCheckpoint(data, e.prog)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewFromCheckpoint(e.prog, ck)
	if err != nil {
		t.Fatal(err)
	}
	r.Restart = true
	for i := 0; i < 5000; i++ {
		da, oka := e.Next()
		db, okb := r.Next()
		if oka != okb || da != db {
			t.Fatalf("instruction %d: original (%+v,%v) vs resumed (%+v,%v)", i, da, oka, db, okb)
		}
	}
	a, b := e.Checkpoint(), r.Checkpoint()
	if !a.Equal(&b) {
		t.Fatal("states diverged after identical resumed execution")
	}
}

func TestUnmarshalCheckpointErrors(t *testing.T) {
	e := run(t, 1000)
	orig := e.Checkpoint()
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCheckpoint(nil, e.prog); err == nil {
		t.Error("empty checkpoint accepted")
	}
	if _, err := UnmarshalCheckpoint(data[:len(data)-9], e.prog); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff // corrupt the magic
	if _, err := UnmarshalCheckpoint(bad, e.prog); err == nil {
		t.Error("wrong-magic checkpoint accepted")
	}
	if _, err := UnmarshalCheckpoint(append(append([]byte(nil), data...), 0), e.prog); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A structurally different program must be rejected by position
	// validation, not executed.
	other, _ := workload.ByName("mcf")
	if _, err := UnmarshalCheckpoint(data, other.Build(7)); err == nil {
		t.Error("checkpoint attached to a different program")
	}
}

// streamCheckpoints returns two checkpoints along one stream of
// checkpointProg. Both map two pages: the data page, which the program
// rewrites every iteration, and a page it never writes.
func streamCheckpoints(tb testing.TB) (*prog.Program, Checkpoint, Checkpoint) {
	tb.Helper()
	p := checkpointProg(tb)
	e := MustNew(p)
	e.Restart = true
	step := func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := e.Next(); !ok {
				tb.Fatal("halted")
			}
		}
	}
	e.Mem().Store(1<<30, 42)
	step(700)
	prev := e.Checkpoint()
	step(300)
	return p, prev, e.Checkpoint()
}

// TestCheckpointDeltaRoundTrip: a delta carries only the pages that
// changed, and decoding it against the same base rebuilds the whole
// checkpoint, with its own page map.
func TestCheckpointDeltaRoundTrip(t *testing.T) {
	p, prev, cur := streamCheckpoints(t)
	full, err := cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	same, err := cur.MarshalDelta(nil)
	if err != nil || !bytes.Equal(same, full) {
		t.Fatalf("MarshalDelta(nil) differs from MarshalBinary (err %v)", err)
	}
	delta, err := cur.MarshalDelta(&prev)
	if err != nil {
		t.Fatal(err)
	}
	// Only the data page changed; the other is shared with the base.
	if got, want := len(delta), len(full)-pageRecord; got != want {
		t.Fatalf("delta is %d bytes, want %d: one of two pages changed", got, want)
	}
	got, err := UnmarshalCheckpointDelta(delta, p, &prev)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&cur) {
		t.Fatal("delta decode differs from the checkpoint")
	}
	if got.Equal(&prev) {
		t.Fatal("delta decode equals its base")
	}
	again, err := prev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := UnmarshalCheckpoint(again, p); err != nil || !back.Equal(&prev) {
		t.Fatal("decoding a delta changed its base")
	}

	// Against itself, a checkpoint's delta holds no page at all: every
	// page pointer is shared.
	self, err := cur.MarshalDelta(&cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != len(full)-2*pageRecord {
		t.Fatalf("self-delta is %d bytes, want header only (%d)", len(self), len(full)-2*pageRecord)
	}
	back, err := UnmarshalCheckpointDelta(self, p, &cur)
	if err != nil || !back.Equal(&cur) {
		t.Fatalf("self-delta decode: %v", err)
	}

	// A base that maps a page the checkpoint lacks cannot be expressed,
	// and decoding against a base with too few pages fails the page
	// total.
	fresh := MustNew(p).Checkpoint()
	if _, err := fresh.MarshalDelta(&cur); err == nil {
		t.Fatal("delta against a base with an extra page accepted")
	}
	if _, err := UnmarshalCheckpointDelta(self, p, &fresh); err == nil {
		t.Fatal("delta decoded against the wrong base")
	}
}

func TestUnmarshalCheckpointRejectsNoncanonical(t *testing.T) {
	p, _, cur := streamCheckpoints(t)
	full, err := cur.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two page records: keys out of order.
	hdr := len(full) - 2*pageRecord
	swapped := append(append(append([]byte(nil), full[:hdr]...),
		full[hdr+pageRecord:]...), full[hdr:hdr+pageRecord]...)
	if _, err := UnmarshalCheckpoint(swapped, p); err == nil {
		t.Error("out-of-order pages accepted")
	}
	// The halt flag is one byte just before the page count.
	bad := append([]byte(nil), full...)
	bad[hdr-5] = 2
	if _, err := UnmarshalCheckpoint(bad, p); err == nil {
		t.Error("halt flag 2 accepted")
	}
}

// FuzzUnmarshalCheckpoint decodes arbitrary bytes as a full checkpoint
// and as a delta against a fixed base. Neither may panic; an accepted
// full checkpoint must re-marshal to the same bytes, and an accepted
// delta must decode to a whole checkpoint. The committed seeds are the
// later of streamCheckpoints' two checkpoints, whole (full) and as a
// delta against the earlier (delta), and a fresh emulator's checkpoint
// that carries its data page unchanged from the program's image
// (image-page), which no encoder writes.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	p, prev, _ := streamCheckpoints(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := UnmarshalCheckpoint(data, p); err == nil {
			again, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("accepted checkpoint re-marshals to different bytes")
			}
		}
		if c, err := UnmarshalCheckpointDelta(data, p, &prev); err == nil {
			full, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalCheckpoint(full, p)
			if err != nil || !back.Equal(&c) {
				t.Fatalf("accepted delta is not a whole checkpoint: %v", err)
			}
		}
	})
}
