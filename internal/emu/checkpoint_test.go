package emu

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// checkpointProg builds a program with enough variety to exercise every
// piece of checkpointed state: memory traffic, call stack depth, FP
// registers and data-dependent branches.
func checkpointProg(tb testing.TB) *prog.Program {
	tb.Helper()
	b := prog.NewBuilder("ckpt")
	base := b.AppendData(make([]int64, 64)...)
	b.Proc("main").Entry().
		Li(isa.R(1), 200).
		Li(isa.R(2), int64(base)).
		Li(isa.R(26), 0x9e3779b9).
		Label("loop").
		Shli(isa.R(27), isa.R(26), 13).Xor(isa.R(26), isa.R(26), isa.R(27)).
		Shri(isa.R(27), isa.R(26), 7).Xor(isa.R(26), isa.R(26), isa.R(27)).
		Andi(isa.R(3), isa.R(26), 63*8).
		Add(isa.R(4), isa.R(2), isa.R(3)).
		Ld(isa.R(5), isa.R(4), 0).
		Add(isa.R(5), isa.R(5), isa.R(26)).
		St(isa.R(5), isa.R(4), 0).
		ItoF(isa.FP(0), isa.R(5)).
		FAdd(isa.FP(1), isa.FP(1), isa.FP(0)).
		Call("helper").
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	b.Proc("helper").
		Andi(isa.R(10), isa.R(26), 1).
		Beq(isa.R(10), isa.RZero, "even").
		Addi(isa.R(11), isa.R(11), 3).
		Jmp("out").
		Label("even").
		Addi(isa.R(11), isa.R(11), 7).
		Label("out").
		Ret()
	return b.MustBuild()
}

func collect(t *testing.T, s trace.Stream, n int) []trace.DynInst {
	t.Helper()
	out := make([]trace.DynInst, 0, n)
	var d trace.DynInst // one record, reused: a field left stale shows up
	for len(out) < n && s.NextInto(&d) {
		out = append(out, d)
	}
	return out
}

// TestCheckpointDeterminism is the randomized restore contract: a
// checkpoint taken after a random prefix must reproduce the identical
// remaining DynInst sequence — Seq continuity, branch outcomes, and
// memory addresses included — both on in-place Restore and on a fresh
// emulator built from the checkpoint.
func TestCheckpointDeterminism(t *testing.T) {
	p := checkpointProg(t)
	const budget = 3000
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ref := MustNew(p)
		ref.Restart = true
		prefix := rng.Intn(budget - 1)
		collect(t, ref, prefix)
		cp := ref.Checkpoint()
		if cp.Seq() != int64(prefix) {
			t.Fatalf("trial %d: checkpoint Seq = %d, want %d", trial, cp.Seq(), prefix)
		}
		want := collect(t, ref, budget-prefix)

		// In-place restore on a second emulator advanced to a different,
		// unrelated position.
		other := MustNew(p)
		other.Restart = true
		collect(t, other, rng.Intn(budget))
		if err := other.Restore(cp); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if got := collect(t, other, budget-prefix); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: restored stream diverges from original", trial)
		}

		// Fresh emulator from the same checkpoint: the checkpoint must
		// survive the first restore untouched.
		fresh, err := NewFromCheckpoint(p, cp)
		if err != nil {
			t.Fatalf("trial %d: NewFromCheckpoint: %v", trial, err)
		}
		fresh.Restart = true
		if got := collect(t, fresh, budget-prefix); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: fresh-from-checkpoint stream diverges", trial)
		}
	}
}

// marshal returns the checkpoint's wire bytes.
func marshal(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointIsolation verifies a checkpoint is a true snapshot: state
// mutated after the checkpoint (registers, memory) must not leak into it.
func TestCheckpointIsolation(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p)
	collect(t, e, 500)
	cp := e.Checkpoint()
	wantR5 := e.IntReg(5)
	want := marshal(t, &cp)
	// Advance the emulator: it rewrites r5 and the data table in place,
	// on pages it shares with the checkpoint.
	collect(t, e, 500)
	if got := marshal(t, &cp); !bytes.Equal(got, want) {
		t.Fatal("source emulator's writes after Checkpoint reached the checkpoint")
	}
	r, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.IntReg(5); got != wantR5 {
		t.Fatalf("restored r5 = %d, want %d (checkpoint mutated by later run)", got, wantR5)
	}
	// The restored emulator's memory writes must not flow back into the
	// checkpoint either: restore twice and compare first instructions.
	collect(t, r, 500)
	if got := marshal(t, &cp); !bytes.Equal(got, want) {
		t.Fatal("restored emulator's writes reached the checkpoint")
	}
	r2, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	a := collect(t, r2, 100)
	r3, _ := NewFromCheckpoint(p, cp)
	b := collect(t, r3, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("second restore from checkpoint differs from first")
	}
}

// TestCopyOnWriteRestores: two emulators restored from one checkpoint
// share its pages until they write. Writing the same page in turn, each
// must read back only its own writes, and the checkpoint must keep its
// bytes — for a checkpoint taken from a running emulator and for one
// decoded from its bytes, whose pages belong to no memory.
func TestCopyOnWriteRestores(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p)
	collect(t, e, 300)
	taken := e.Checkpoint()
	want := marshal(t, &taken)
	decoded, err := UnmarshalCheckpoint(want, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, cp := range map[string]Checkpoint{"taken": taken, "decoded": decoded} {
		a, err := NewFromCheckpoint(p, cp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewFromCheckpoint(p, cp)
		if err != nil {
			t.Fatal(err)
		}
		base := p.DataBase
		orig0, orig1 := a.Mem().Load(base), a.Mem().Load(base+8)
		a.Mem().Store(base, 111)
		b.Mem().Store(base, 222)
		a.Mem().Store(base+8, 333)
		if got := a.Mem().Load(base); got != 111 {
			t.Errorf("%s: a reads %d at the shared page, want its own 111", name, got)
		}
		if got := b.Mem().Load(base); got != 222 {
			t.Errorf("%s: b reads %d at the shared page, want its own 222", name, got)
		}
		if got := b.Mem().Load(base + 8); got != orig1 {
			t.Errorf("%s: b reads a's write: %d, want the checkpoint's %d", name, got, orig1)
		}
		if !bytes.Equal(marshal(t, &cp), want) {
			t.Fatalf("%s: writes by restored emulators reached the checkpoint", name)
		}
		c, err := NewFromCheckpoint(p, cp)
		if err != nil {
			t.Fatal(err)
		}
		if c.Mem().Load(base) != orig0 || c.Mem().Load(base+8) != orig1 {
			t.Fatalf("%s: a third restore sees earlier restores' writes", name)
		}
	}
}

// TestConcurrentRestores: goroutines restoring from one checkpoint and
// running concurrently share its pages; each stream must equal a serial
// run. Run it under -race.
func TestConcurrentRestores(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p)
	e.Restart = true
	collect(t, e, 1000)
	cp := e.Checkpoint()
	const n = 10_000
	serial, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	serial.Restart = true
	want := collect(t, serial, n)
	got := make([][]trace.DynInst, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := NewFromCheckpoint(p, cp)
			if err != nil {
				t.Error(err)
				return
			}
			r.Restart = true
			for len(got[i]) < n {
				d, ok := r.Next()
				if !ok {
					break
				}
				got[i] = append(got[i], d)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d: stream differs from the serial run", i)
		}
	}
}

// TestCheckpointWrongProgram verifies the program-identity guard.
func TestCheckpointWrongProgram(t *testing.T) {
	p1 := checkpointProg(t)
	p2 := checkpointProg(t)
	e1 := MustNew(p1)
	cp := e1.Checkpoint()
	e2 := MustNew(p2)
	if err := e2.Restore(cp); err == nil {
		t.Fatal("restore across programs succeeded; want error")
	}
}

// TestCheckpointAtHalt verifies halting state round-trips.
func TestCheckpointAtHalt(t *testing.T) {
	p := checkpointProg(t)
	e := MustNew(p) // Restart off: the program eventually halts
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	cp := e.Checkpoint()
	r, err := NewFromCheckpoint(p, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Halted() {
		t.Fatal("restored emulator not halted")
	}
	if _, ok := r.Next(); ok {
		t.Fatal("halted emulator yielded an instruction")
	}
}
