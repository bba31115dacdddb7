package emu

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Count pins for two optimisations that change no result, so that only
// a count, not a byte, shows when one breaks.

// TestDecodeOncePerProgram: every emulator over one program runs on the
// one decoded dispatch table the program stashes: New's, and
// NewFromCheckpoint's from a checkpoint taken from a running emulator
// or decoded from its bytes — the fork every sampled window makes.
func TestDecodeOncePerProgram(t *testing.T) {
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	var emus []*Emulator
	for range 3 {
		emus = append(emus, MustNew(p))
	}
	collect(t, emus[0], 5_000)
	taken := emus[0].Checkpoint()
	decoded, err := UnmarshalCheckpoint(marshal(t, &taken), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range []Checkpoint{taken, taken, decoded, decoded} {
		e, err := NewFromCheckpoint(p, ck)
		if err != nil {
			t.Fatal(err)
		}
		emus = append(emus, e)
	}
	tables := map[*decProgram]bool{}
	for _, e := range emus {
		tables[e.dec] = true
	}
	stashed, _ := p.Decoded().(*decProgram)
	if len(tables) != 1 || !tables[stashed] {
		t.Errorf("%d emulators run on %d decoded tables (the program's stash among them: %v), want 1: the program's", len(emus), len(tables), tables[stashed])
	}
}

// TestRestoreOwnsWrittenPages: an emulator restored from a checkpoint
// shares the checkpoint's pages and copies one only when it first
// stores to it, so after running it owns exactly the pages its
// instructions stored to: bzip2 maps 8 pages, and 20,000 instructions
// from a checkpoint 50,000 in store 340 times to 2 of them.
func TestRestoreOwnsWrittenPages(t *testing.T) {
	b, _ := workload.ByName("bzip2")
	p := b.Build(42)
	src := MustNew(p)
	src.Restart = true
	collect(t, src, 50_000)
	e, err := NewFromCheckpoint(p, src.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	stored := map[uint64]bool{}
	var d trace.DynInst
	for range 20_000 {
		if !e.NextInto(&d) {
			t.Fatal("bzip2 halted")
		}
		if d.Op.Class() == isa.ClassStore {
			stored[uint64(d.Addr)>>pageBits] = true
		}
	}
	var owned []uint64
	for key, pg := range e.mem.pages {
		if pg.owner == e.mem.epoch {
			owned = append(owned, key)
		}
	}
	slices.Sort(owned)
	want := slices.Sorted(func(yield func(uint64) bool) {
		for key := range stored {
			if !yield(key) {
				return
			}
		}
	})
	if !slices.Equal(owned, want) {
		t.Errorf("the restored emulator owns %d pages, want the %d it stored to", len(owned), len(want))
	}
	if len(e.mem.pages) != 8 || len(want) != 2 {
		t.Errorf("%d pages mapped and %d stored to, want 8 and 2: the workload changed; re-measure", len(e.mem.pages), len(want))
	}
}
