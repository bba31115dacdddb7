package emu

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

func TestMemorySparse(t *testing.T) {
	m := &Memory{pages: map[uint64]*page{}, epoch: new(epoch)}
	if m.Load(0x12345678) != 0 {
		t.Error("unmapped memory must read 0")
	}
	m.Store(0x1000, 42)
	m.Store(0x1008, -7)
	if m.Load(0x1000) != 42 || m.Load(0x1008) != -7 {
		t.Error("store/load round trip failed")
	}
	// Unaligned access rounds down to the containing word.
	if m.Load(0x1003) != 42 {
		t.Error("unaligned load must read containing word")
	}
	if len(m.pages) != 1 {
		t.Errorf("pages = %d, want 1", len(m.pages))
	}
}

func TestMemoryPropertyRoundTrip(t *testing.T) {
	m := &Memory{pages: map[uint64]*page{}, epoch: new(epoch)}
	f := func(addr uint64, v int64) bool {
		addr &= 0xFFFF_FFFF
		m.Store(addr, v)
		return m.Load(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildSumLoop(t *testing.T, n int64) *prog.Program {
	t.Helper()
	// sum = 0; for i = n; i != 0; i-- { sum += i }; store sum
	b := prog.NewBuilder("sum")
	b.Proc("main").Entry().
		Li(isa.R(1), n).       // i
		Li(isa.R(2), 0).       // sum
		Li(isa.R(3), 0x10000). // data base
		Label("loop").
		Add(isa.R(2), isa.R(2), isa.R(1)).
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		St(isa.R(2), isa.R(3), 0).
		Halt()
	return b.MustBuild()
}

func TestSumLoopExecution(t *testing.T) {
	p := buildSumLoop(t, 10)
	e := MustNew(p)
	var last trace.DynInst
	steps := 0
	for {
		d, ok := e.Next()
		if !ok {
			break
		}
		last = d
		steps++
		if steps > 1000 {
			t.Fatal("runaway loop")
		}
	}
	if got := e.Mem().Load(0x10000); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if last.Op != isa.Halt {
		t.Errorf("last op = %v, want halt", last.Op)
	}
	// 3 setup + 10*3 loop + 1 store + 1 halt = 35
	if steps != 35 {
		t.Errorf("steps = %d, want 35", steps)
	}
}

func TestBranchOutcomesInTrace(t *testing.T) {
	p := buildSumLoop(t, 3)
	tr, err := runTrace(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var branches []trace.DynInst
	for _, d := range tr {
		if d.Op == isa.Bne {
			branches = append(branches, d)
		}
	}
	if len(branches) != 3 {
		t.Fatalf("branch count = %d, want 3", len(branches))
	}
	if !branches[0].Taken || !branches[1].Taken || branches[2].Taken {
		t.Errorf("branch outcomes = %v,%v,%v want taken,taken,not",
			branches[0].Taken, branches[1].Taken, branches[2].Taken)
	}
	// Taken branch's NextPC must equal the loop header PC.
	loopPC := p.Procs[0].Blocks[1].Insts[0].PC
	if branches[0].NextPC != loopPC {
		t.Errorf("taken NextPC = %d, want %d", branches[0].NextPC, loopPC)
	}
	if branches[0].NextPC == branches[0].PC+isa.InstBytes {
		t.Error("taken backward branch must redirect")
	}
}

func TestCallReturnStack(t *testing.T) {
	b := prog.NewBuilder("calls")
	b.Proc("main").Entry().
		Li(isa.R(1), 5).
		Call("double").
		Call("double").
		St(isa.R(1), isa.R(2), 0). // r2=0 -> addr 0
		Halt()
	b.Proc("double").
		Add(isa.R(1), isa.R(1), isa.R(1)).
		Ret()
	p := b.MustBuild()
	e := MustNew(p)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	if got := e.IntReg(1); got != 20 {
		t.Errorf("r1 = %d, want 20", got)
	}
	if got := e.Mem().Load(0); got != 20 {
		t.Errorf("mem[0] = %d, want 20", got)
	}
}

func TestDataSegmentLoaded(t *testing.T) {
	b := prog.NewBuilder("data")
	addr := b.AppendData(111, 222)
	b.Proc("main").Entry().
		Li(isa.R(1), int64(addr)).
		Ld(isa.R(2), isa.R(1), 8).
		Halt()
	p := b.MustBuild()
	e := MustNew(p)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	if got := e.IntReg(2); got != 222 {
		t.Errorf("r2 = %d, want 222", got)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	b := prog.NewBuilder("zero")
	b.Proc("main").Entry().
		Li(isa.RZero, 99).
		Addi(isa.R(1), isa.RZero, 7).
		Halt()
	p := b.MustBuild()
	e := MustNew(p)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	if e.IntReg(0) != 0 {
		t.Error("r0 was modified")
	}
	if e.IntReg(1) != 7 {
		t.Errorf("r1 = %d, want 7", e.IntReg(1))
	}
}

func TestDivByZeroAndOverflow(t *testing.T) {
	b := prog.NewBuilder("div")
	b.Proc("main").Entry().
		Li(isa.R(1), 10).
		Li(isa.R(2), 0).
		Div(isa.R(3), isa.R(1), isa.R(2)).
		Rem(isa.R(4), isa.R(1), isa.R(2)).
		Li(isa.R(5), -9223372036854775808).
		Li(isa.R(6), -1).
		Div(isa.R(7), isa.R(5), isa.R(6)).
		Rem(isa.R(8), isa.R(5), isa.R(6)).
		Halt()
	p := b.MustBuild()
	e := MustNew(p)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	if e.IntReg(3) != 0 || e.IntReg(4) != 0 {
		t.Errorf("div/rem by zero = %d,%d want 0,0", e.IntReg(3), e.IntReg(4))
	}
	if e.IntReg(7) != -9223372036854775808 || e.IntReg(8) != 0 {
		t.Errorf("overflow div/rem = %d,%d", e.IntReg(7), e.IntReg(8))
	}
}

func TestRestartMode(t *testing.T) {
	p := buildSumLoop(t, 2)
	e := MustNew(p)
	e.Restart = true
	count := 0
	for count < 100 {
		_, ok := e.Next()
		if !ok {
			t.Fatal("restarting emulator must not halt")
		}
		count++
	}
	if e.Halted() {
		t.Error("restarting emulator reports halted")
	}
}

func TestHintsAppearInTrace(t *testing.T) {
	b := prog.NewBuilder("hints")
	b.Proc("main").Entry().
		Hint(12).
		Li(isa.R(1), 1).
		Halt()
	p := b.MustBuild()
	tr, err := runTrace(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr[0].Op != isa.HintNop || tr[0].Hint != 12 {
		t.Errorf("hint record = %+v", tr[0])
	}
	if tr[0].Hint <= 0 {
		t.Error("hint record must carry its hint")
	}
}

func TestDeterminism(t *testing.T) {
	p := buildSumLoop(t, 50)
	t1, _ := runTrace(p, 500)
	t2, _ := runTrace(p, 500)
	if len(t1) != len(t2) {
		t.Fatalf("lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, t1[i], t2[i])
		}
	}
}

func TestFloatingPoint(t *testing.T) {
	b := prog.NewBuilder("fp")
	b.Proc("main").Entry().
		Li(isa.R(1), 6).
		ItoF(isa.FP(0), isa.R(1)).
		FMul(isa.FP(1), isa.FP(0), isa.FP(0)).
		FtoI(isa.R(2), isa.FP(1)).
		Halt()
	p := b.MustBuild()
	e := MustNew(p)
	for {
		if _, ok := e.Next(); !ok {
			break
		}
	}
	if e.IntReg(2) != 36 {
		t.Errorf("fp square = %d, want 36", e.IntReg(2))
	}
}

// limit wraps a stream and cuts it after n instructions.
type limit struct {
	s trace.Stream
	n int64
}

func (l *limit) NextInto(d *trace.DynInst) bool {
	if l.n <= 0 {
		return false
	}
	l.n--
	return l.s.NextInto(d)
}

// runTrace executes up to budget instructions of p and returns the trace.
func runTrace(p *prog.Program, budget int64) ([]trace.DynInst, error) {
	e, err := New(p)
	if err != nil {
		return nil, err
	}
	var out []trace.DynInst
	var d trace.DynInst
	for int64(len(out)) < budget && e.NextInto(&d) {
		out = append(out, d)
	}
	return out, nil
}

func TestStreamLimit(t *testing.T) {
	p := buildSumLoop(t, 100)
	e := MustNew(p)
	lim := &limit{s: e, n: 7}
	var d trace.DynInst
	n := 0
	for lim.NextInto(&d) {
		n++
	}
	if n != 7 {
		t.Errorf("limit yielded %d, want 7", n)
	}
}

// TestNextIntoContract pins the Stream contract on the emulator: once
// NextInto reports false it keeps reporting false, and the by-value Next
// wrapper yields NextInto's records, then the zero record.
func TestNextIntoContract(t *testing.T) {
	p := buildSumLoop(t, 4)
	e, w := MustNew(p), MustNew(p)
	var d trace.DynInst
	for i := 0; ; i++ {
		ok := e.NextInto(&d)
		got, wok := w.Next()
		if ok != wok || (ok && got != d) {
			t.Fatalf("record %d: NextInto (%+v, %v), Next (%+v, %v)", i, d, ok, got, wok)
		}
		if !ok {
			if got != (trace.DynInst{}) {
				t.Fatalf("Next after halt returned %+v, want the zero record", got)
			}
			break
		}
	}
	for i := 0; i < 3; i++ {
		if e.NextInto(&d) {
			t.Fatal("halted emulator yielded an instruction")
		}
		if _, ok := w.Next(); ok {
			t.Fatal("halted emulator's Next yielded an instruction")
		}
	}
}

// TestMemoryMatchesMap drives Load and Store against a plain map of
// words over random addresses on a few pages, with Checkpoint and
// Restore interleaved: a checkpoint moves the memory to a new epoch, so
// its next store to each shared page copies that page, and a restore
// starts a fresh memory over shared pages. Every load must read what the
// map holds.
func TestMemoryMatchesMap(t *testing.T) {
	p := buildSumLoop(t, 1)
	e := MustNew(p)
	rng := rand.New(rand.NewSource(5))
	want := map[uint64]int64{} // the program has no data segment
	type saved struct {
		c    Checkpoint
		want map[uint64]int64
	}
	var snaps []saved
	addr := func() uint64 {
		// Six pages, so checkpoints share pages that later stores copy.
		return uint64(rng.Intn(6))<<pageBits | uint64(rng.Intn(pageWords))<<3 | uint64(rng.Intn(8))
	}
	for i := 0; i < 200_000; i++ {
		switch r := rng.Intn(100); {
		case r < 45:
			a := addr()
			if got := e.Mem().Load(a); got != want[a&^7] {
				t.Fatalf("op %d: Load(%#x) = %d, want %d", i, a, got, want[a&^7])
			}
		case r < 90:
			a, v := addr(), rng.Int63()
			e.Mem().Store(a, v)
			want[a&^7] = v
		case r < 95:
			snaps = append(snaps, saved{e.Checkpoint(), maps.Clone(want)})
		default:
			if len(snaps) == 0 {
				continue
			}
			s := snaps[rng.Intn(len(snaps))]
			if err := e.Restore(s.c); err != nil {
				t.Fatal(err)
			}
			want = maps.Clone(s.want)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoint taken")
	}
	// The checkpoints still hold the memory they were taken with.
	for i, s := range snaps {
		r, err := NewFromCheckpoint(p, s.c)
		if err != nil {
			t.Fatal(err)
		}
		for a, v := range s.want {
			if got := r.Mem().Load(a); got != v {
				t.Fatalf("checkpoint %d: word %#x = %d, want %d", i, a, got, v)
			}
		}
	}
}
