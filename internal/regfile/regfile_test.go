package regfile

import (
	"math/rand"
	"testing"
)

func TestInitialState(t *testing.T) {
	f := MustNew(DefaultConfig())
	if f.Live() != 32 {
		t.Errorf("live = %d, want 32 arch regs", f.Live())
	}
	if f.BanksOn() != 4 {
		t.Errorf("banks on = %d, want 4 (32 regs / 8 per bank)", f.BanksOn())
	}
	for a := 0; a < 32; a++ {
		if f.Rename(a) != a {
			t.Errorf("arch %d maps to %d initially", a, f.Rename(a))
		}
		if !f.IsReady(a) {
			t.Errorf("initial arch reg %d not ready", a)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocateLowestFirst(t *testing.T) {
	f := MustNew(DefaultConfig())
	r, ok := f.Allocate()
	if !ok || r != 32 {
		t.Fatalf("first alloc = %d,%v want 32 (lowest free)", r, ok)
	}
	r2, _ := f.Allocate()
	if r2 != 33 {
		t.Fatalf("second alloc = %d, want 33", r2)
	}
	f.Free(r)
	r3, _ := f.Allocate()
	if r3 != 32 {
		t.Fatalf("alloc after free = %d, want 32 (reuse lowest)", r3)
	}
}

func TestExhaustion(t *testing.T) {
	f := MustNew(Config{Regs: 40, BankSize: 8, ArchRegs: 32})
	var got []int
	for {
		r, ok := f.Allocate()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 8 {
		t.Fatalf("allocated %d, want 8", len(got))
	}
	if f.Stats.AllocFails != 1 {
		t.Errorf("alloc fails = %d, want 1", f.Stats.AllocFails)
	}
	f.Free(got[3])
	if _, ok := f.Allocate(); !ok {
		t.Error("allocation after free must succeed")
	}
}

func TestBankGatingTracksPressure(t *testing.T) {
	f := MustNew(DefaultConfig())
	var regs []int
	// Allocate 40 more: live = 72 -> 9 banks.
	for i := 0; i < 40; i++ {
		r, ok := f.Allocate()
		if !ok {
			t.Fatal("unexpected exhaustion")
		}
		regs = append(regs, r)
	}
	if f.BanksOn() != 9 {
		t.Errorf("banks on = %d, want 9", f.BanksOn())
	}
	// Free them all: back to 4 banks.
	for _, r := range regs {
		f.Free(r)
	}
	if f.BanksOn() != 4 {
		t.Errorf("banks on after free = %d, want 4", f.BanksOn())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRenameCycle(t *testing.T) {
	f := MustNew(DefaultConfig())
	// Rename arch 5 twice as a pipeline would.
	p1, _ := f.Allocate()
	prev1 := f.SetRename(5, p1)
	if prev1 != 5 {
		t.Fatalf("prev mapping = %d, want 5", prev1)
	}
	p2, _ := f.Allocate()
	prev2 := f.SetRename(5, p2)
	if prev2 != p1 {
		t.Fatalf("prev mapping = %d, want %d", prev2, p1)
	}
	// Commit of the second renamer frees prev2.
	f.MarkReady(p1)
	f.MarkReady(p2)
	f.Free(prev1) // first renamer commits, frees original arch mapping
	f.Free(prev2)
	if f.Live() != 32 {
		t.Errorf("live = %d, want 32 after both commits", f.Live())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	f := MustNew(DefaultConfig())
	r, _ := f.Allocate()
	f.Free(r)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	f.Free(r)
}

func TestReadyLifecycle(t *testing.T) {
	f := MustNew(DefaultConfig())
	r, _ := f.Allocate()
	if f.IsReady(r) {
		t.Error("fresh allocation must not be ready")
	}
	f.MarkReady(r)
	if !f.IsReady(r) {
		t.Error("MarkReady did not take")
	}
	f.Free(r)
	r2, _ := f.Allocate()
	if r2 == r && f.IsReady(r2) {
		t.Error("reused register leaked ready state")
	}
}

func TestStatsSampling(t *testing.T) {
	f := MustNew(DefaultConfig())
	f.Read()
	f.Read()
	f.Write()
	f.Tick(1)
	if f.Stats.Reads != 2 || f.Stats.Writes != 1 || f.Stats.Cycles != 1 {
		t.Errorf("stats = %+v", f.Stats)
	}
	if f.Stats.LiveSum != 32 || f.Stats.BanksOnSum != 4 {
		t.Errorf("samples = live %d banks %d", f.Stats.LiveSum, f.Stats.BanksOnSum)
	}
	if f.Stats.BanksOnReads != 8 {
		t.Errorf("banksOnReads = %d, want 8", f.Stats.BanksOnReads)
	}
	// One call for n unchanged cycles charges what n calls of one would.
	f.Allocate()
	f.Tick(5)
	if f.Stats.Cycles != 6 || f.Stats.LiveSum != 32+5*33 || f.Stats.BanksOnSum != 4+5*5 {
		t.Errorf("after Tick(5): cycles %d live %d banks %d", f.Stats.Cycles, f.Stats.LiveSum, f.Stats.BanksOnSum)
	}
}

func TestRandomisedLifecycleInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := MustNew(Config{Regs: 48, BankSize: 8, ArchRegs: 16})
	var allocated []int
	for step := 0; step < 10000; step++ {
		if rng.Intn(2) == 0 {
			if r, ok := f.Allocate(); ok {
				allocated = append(allocated, r)
				if rng.Intn(2) == 0 {
					f.MarkReady(r)
				}
			}
		} else if len(allocated) > 0 {
			i := rng.Intn(len(allocated))
			f.Free(allocated[i])
			allocated[i] = allocated[len(allocated)-1]
			allocated = allocated[:len(allocated)-1]
		}
		if step%500 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if f.Live() != 16+len(allocated) {
		t.Errorf("live = %d, want %d", f.Live(), 16+len(allocated))
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := New(Config{Regs: 50, BankSize: 8, ArchRegs: 32}); err == nil {
		t.Error("accepted regs not multiple of bank size")
	}
	if _, err := New(Config{Regs: 16, BankSize: 8, ArchRegs: 32}); err == nil {
		t.Error("accepted arch > phys")
	}
}
