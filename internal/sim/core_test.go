package sim

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
)

// independentALUProgram builds n fully independent single-cycle adds
// inside a long loop: an 8-wide machine should sustain high IPC on it.
func independentALUProgram() *prog.Program {
	b := prog.NewBuilder("ilp")
	pb := b.Proc("main").Entry().
		Li(isa.R(1), 1_000_000).
		Label("loop")
	for i := 0; i < 16; i++ {
		pb.Addi(isa.R(2+i%12), isa.R(2+i%12), 1)
	}
	pb.Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	return b.MustBuild()
}

// dependentChainProgram builds a serial dependence chain: IPC ~1 at best.
func dependentChainProgram() *prog.Program {
	b := prog.NewBuilder("chain")
	pb := b.Proc("main").Entry().
		Li(isa.R(1), 1_000_000).
		Label("loop")
	for i := 0; i < 16; i++ {
		pb.Addi(isa.R(2), isa.R(2), 1)
	}
	pb.Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	return b.MustBuild()
}

func run(t *testing.T, cfg Config, p *prog.Program, budget int64) Stats {
	t.Helper()
	st, err := RunProgram(cfg, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHighILPThroughput(t *testing.T) {
	st := run(t, DefaultConfig(), independentALUProgram(), 50_000)
	if ipc := st.IPC(); ipc < 4.0 {
		t.Errorf("independent adds IPC = %.2f, want >= 4 on an 8-wide core", ipc)
	}
	if st.CommittedReal != 50_000 {
		t.Errorf("committed = %d, want exactly the budget", st.CommittedReal)
	}
}

func TestSerialChainBoundsIPC(t *testing.T) {
	st := run(t, DefaultConfig(), dependentChainProgram(), 50_000)
	ipc := st.IPC()
	if ipc > 1.35 {
		t.Errorf("serial chain IPC = %.2f, want close to 1 (chain-bound)", ipc)
	}
	if ipc < 0.5 {
		t.Errorf("serial chain IPC = %.2f, unexpectedly low", ipc)
	}
}

func TestILPOrderingSanity(t *testing.T) {
	ind := run(t, DefaultConfig(), independentALUProgram(), 30_000)
	dep := run(t, DefaultConfig(), dependentChainProgram(), 30_000)
	if ind.IPC() <= dep.IPC() {
		t.Errorf("independent IPC %.2f must exceed dependent IPC %.2f", ind.IPC(), dep.IPC())
	}
}

func TestHintLimitingReducesOccupancyNotIPC(t *testing.T) {
	// The serial chain needs almost no queue: a small hint must slash
	// occupancy and wakeups while leaving IPC nearly untouched — the
	// paper's core claim in miniature.
	p := dependentChainProgram()
	base := run(t, DefaultConfig(), p, 40_000)

	// Same program with a tight hint at the loop head.
	b := prog.NewBuilder("chainhint")
	pb := b.Proc("main").Entry().
		Li(isa.R(1), 1_000_000).
		Label("loop").
		Hint(4)
	for i := 0; i < 16; i++ {
		pb.Addi(isa.R(2), isa.R(2), 1)
	}
	pb.Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	hp := b.MustBuild()
	cfg := DefaultConfig()
	cfg.Control = ControlHints
	limited := run(t, cfg, hp, 40_000)

	if limited.HintsApplied == 0 {
		t.Fatal("no hints applied")
	}
	occBase, occLim := base.AvgIQOccupancy(), limited.AvgIQOccupancy()
	if occLim > occBase*0.5 {
		t.Errorf("occupancy %.1f -> %.1f: hint did not shrink the queue", occBase, occLim)
	}
	lossPct := (base.IPC() - limited.IPC()) / base.IPC() * 100
	if lossPct > 8 {
		t.Errorf("IPC loss %.1f%% too high for a chain that needs no queue", lossPct)
	}
	wakeBase := float64(base.IQ.GatedWakeups) / float64(base.CommittedReal)
	wakeLim := float64(limited.IQ.GatedWakeups) / float64(limited.CommittedReal)
	if wakeLim > wakeBase*0.6 {
		t.Errorf("wakeups/inst %.2f -> %.2f: expected large reduction", wakeBase, wakeLim)
	}
}

func TestHintsIgnoredWithoutControl(t *testing.T) {
	b := prog.NewBuilder("ignored")
	pb := b.Proc("main").Entry().Li(isa.R(1), 100_000).Label("loop").Hint(2)
	for i := 0; i < 8; i++ {
		pb.Addi(isa.R(2+i), isa.R(2+i), 1)
	}
	pb.Addi(isa.R(1), isa.R(1), -1).Bne(isa.R(1), isa.RZero, "loop").Halt()
	p := pb.MustBuild()
	cfg := DefaultConfig() // ControlNone
	st := run(t, cfg, p, 20_000)
	if st.HintsApplied != 0 {
		t.Errorf("hints applied under ControlNone: %d", st.HintsApplied)
	}
	if st.CommittedHints == 0 {
		t.Error("hint NOOPs must still consume dispatch slots")
	}
}

func TestMispredictionCostsCycles(t *testing.T) {
	// Data-dependent unpredictable branches (xorshift parity) vs the same
	// loop with an always-taken pattern.
	mk := func(noisy bool) *prog.Program {
		b := prog.NewBuilder("br")
		pb := b.Proc("main").Entry().
			Li(isa.R(1), 1_000_000).
			Li(isa.R(2), 88172645463325252).
			Label("loop")
		if noisy {
			// xorshift64 step, then branch on bit 0.
			pb.Shli(isa.R(3), isa.R(2), 13).Xor(isa.R(2), isa.R(2), isa.R(3)).
				Shri(isa.R(3), isa.R(2), 7).Xor(isa.R(2), isa.R(2), isa.R(3)).
				Shli(isa.R(3), isa.R(2), 17).Xor(isa.R(2), isa.R(2), isa.R(3)).
				Andi(isa.R(4), isa.R(2), 1).
				Beq(isa.R(4), isa.RZero, "skip").
				Addi(isa.R(5), isa.R(5), 1).
				Label("skip")
		} else {
			pb.Addi(isa.R(5), isa.R(5), 1).
				Addi(isa.R(6), isa.R(6), 1).
				Addi(isa.R(7), isa.R(7), 1).
				Addi(isa.R(8), isa.R(8), 1).
				Addi(isa.R(9), isa.R(9), 1).
				Addi(isa.R(10), isa.R(10), 1)
		}
		pb.Addi(isa.R(1), isa.R(1), -1).
			Bne(isa.R(1), isa.RZero, "loop").
			Halt()
		return pb.MustBuild()
	}
	noisy := run(t, DefaultConfig(), mk(true), 40_000)
	steady := run(t, DefaultConfig(), mk(false), 40_000)
	if noisy.Mispredicts < steady.Mispredicts {
		t.Errorf("noisy mispredicts %d < steady %d", noisy.Mispredicts, steady.Mispredicts)
	}
	if noisy.IPC() >= steady.IPC() {
		t.Errorf("noisy IPC %.2f must be below steady %.2f", noisy.IPC(), steady.IPC())
	}
}

func TestCacheMissesSlowLoads(t *testing.T) {
	// Pointer-chase through a large ring (D-cache hostile) vs a tiny ring.
	mk := func(words int64) *prog.Program {
		b := prog.NewBuilder("chase")
		// Data: ring of pointers with stride 8 lines to defeat locality.
		n := words
		data := make([]int64, n)
		stride := int64(37) // co-prime walk
		for i := int64(0); i < n; i++ {
			next := (i + stride) % n
			data[i] = 0x10000 + next*8
		}
		b.SetData(data)
		pb := b.Proc("main").Entry().
			Li(isa.R(1), 1_000_000).
			Li(isa.R(2), 0x10000).
			Label("loop").
			Ld(isa.R(2), isa.R(2), 0). // p = *p
			Addi(isa.R(1), isa.R(1), -1).
			Bne(isa.R(1), isa.RZero, "loop").
			Halt()
		return pb.MustBuild()
	}
	big := run(t, DefaultConfig(), mk(1<<17), 20_000)  // 1MiB working set
	small := run(t, DefaultConfig(), mk(1<<9), 20_000) // 4KiB working set
	if big.DL1.MissRate() < 0.5 {
		t.Errorf("big ring DL1 miss rate %.2f, want >= 0.5", big.DL1.MissRate())
	}
	if small.DL1.MissRate() > 0.05 {
		t.Errorf("small ring DL1 miss rate %.2f, want tiny", small.DL1.MissRate())
	}
	if big.IPC() >= small.IPC()*0.7 {
		t.Errorf("cache misses must hurt: big %.3f vs small %.3f", big.IPC(), small.IPC())
	}
}

func TestCompletionRingClampsLongLatencies(t *testing.T) {
	// A memory latency pushing loads past the completion ring's span used
	// to alias an earlier ring slot and complete the load far too early.
	// With MemCycles=500 every DL1+L2 miss costs 512 cycles > 128: the
	// guard must clamp (and count) rather than corrupt, and the run must
	// still commit its full budget.
	b := prog.NewBuilder("chase")
	n := int64(1 << 17)
	data := make([]int64, n)
	for i := int64(0); i < n; i++ {
		data[i] = 0x10000 + ((i+37)%n)*8
	}
	b.SetData(data)
	pb := b.Proc("main").Entry().
		Li(isa.R(1), 1_000_000).
		Li(isa.R(2), 0x10000).
		Label("loop").
		Ld(isa.R(2), isa.R(2), 0).
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	cfg := DefaultConfig()
	cfg.Caches.MemCycles = 500
	cfg.MaxCycles = 10_000 * 600 // chase at ~512 cycles/load needs headroom
	st := run(t, cfg, pb.MustBuild(), 10_000)
	if st.LatencyClamped == 0 {
		t.Error("expected clamped latencies with MemCycles=500, got none")
	}
	if st.CommittedReal != 10_000 {
		t.Errorf("committed %d, want 10000", st.CommittedReal)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store then immediately load the same address in a loop: must make
	// progress and commit the right count (correctness of disambiguation).
	b := prog.NewBuilder("fwd")
	b.Proc("main").Entry().
		Li(isa.R(1), 100_000).
		Li(isa.R(2), 0x20000).
		Label("loop").
		St(isa.R(1), isa.R(2), 0).
		Ld(isa.R(3), isa.R(2), 0).
		Add(isa.R(4), isa.R(4), isa.R(3)).
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	st := run(t, DefaultConfig(), b.MustBuild(), 30_000)
	if st.CommittedReal != 30_000 {
		t.Errorf("committed %d, want 30000", st.CommittedReal)
	}
	if st.IPC() < 0.8 {
		t.Errorf("forwarding loop IPC %.2f suspiciously low", st.IPC())
	}
}

func TestAdaptiveControlShrinksQueue(t *testing.T) {
	// A low-ILP workload under the abella controller: the queue must be
	// resized down, cutting occupancy against baseline.
	p := dependentChainProgram()
	base := run(t, DefaultConfig(), p, 60_000)
	cfg := DefaultConfig()
	cfg.Control = ControlAdaptive
	// A permissive threshold isolates the mechanism from the production
	// tuning: the serial chain's young-issue share is ~10%.
	cfg.Adaptive.ShrinkThreshold = 0.2
	ad := run(t, cfg, p, 60_000)
	if ad.Resizes == 0 {
		t.Fatal("adaptive controller never resized")
	}
	if ad.AvgIQOccupancy() >= base.AvgIQOccupancy() {
		t.Errorf("adaptive occupancy %.1f not below baseline %.1f",
			ad.AvgIQOccupancy(), base.AvgIQOccupancy())
	}
}

func TestROBLimitConstrains(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Control = ControlAdaptive
	cfg.Adaptive.ROBLimit = 16 // extreme cap to make the effect visible
	st := run(t, cfg, independentALUProgram(), 30_000)
	base := run(t, DefaultConfig(), independentALUProgram(), 30_000)
	if st.IPC() >= base.IPC() {
		t.Errorf("ROB cap 16 IPC %.2f must be below uncapped %.2f", st.IPC(), base.IPC())
	}
	if st.StallROBFull == 0 {
		t.Error("expected ROB-full stalls under a 16-entry cap")
	}
}

func TestDrainAfterStreamEnds(t *testing.T) {
	// Run a short program to natural completion (budget 0).
	b := prog.NewBuilder("short")
	pb := b.Proc("main").Entry()
	for i := 0; i < 40; i++ {
		pb.Addi(isa.R(1+i%10), isa.R(1+i%10), 1)
	}
	pb.Halt()
	st := run(t, DefaultConfig(), pb.MustBuild(), 0)
	if st.CommittedReal != 41 { // 40 adds + halt
		t.Errorf("committed = %d, want 41", st.CommittedReal)
	}
	if st.Cycles == 0 || st.Cycles > 300 {
		t.Errorf("cycles = %d, implausible for 41 instructions", st.Cycles)
	}
}

func TestStatsConsistency(t *testing.T) {
	st := run(t, DefaultConfig(), independentALUProgram(), 20_000)
	if st.IQ.Dispatches < st.CommittedReal {
		t.Errorf("IQ dispatches %d < committed %d", st.IQ.Dispatches, st.CommittedReal)
	}
	if st.IQ.Issues != st.IQ.Dispatches {
		// Every dispatched instruction issues in a drained/cut run within
		// a small tail still in flight at the cut.
		diff := st.IQ.Dispatches - st.IQ.Issues
		if diff < 0 || diff > int64(DefaultConfig().IQ.Entries) {
			t.Errorf("issues %d vs dispatches %d: tail too large", st.IQ.Issues, st.IQ.Dispatches)
		}
	}
	if st.IQ.UngatedWakeups < st.IQ.NonEmptyWakeups || st.IQ.NonEmptyWakeups < st.IQ.GatedWakeups {
		t.Errorf("gating hierarchy violated: %d >= %d >= %d expected",
			st.IQ.UngatedWakeups, st.IQ.NonEmptyWakeups, st.IQ.GatedWakeups)
	}
}

// sliceStream adapts a slice to a trace.Stream.
type sliceStream struct {
	insts []trace.DynInst
	pos   int
}

func (s *sliceStream) NextInto(d *trace.DynInst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*d = s.insts[s.pos]
	s.pos++
	return true
}

func TestSliceStreamDirectly(t *testing.T) {
	// Drive the core with a handmade two-instruction stream.
	mkInst := func(seq int64, pc int) trace.DynInst {
		return trace.DynInst{
			Seq: seq, PC: pc, Op: isa.Addi,
			Dst: isa.R(1), Src1: isa.R(1), Src2: isa.RegNone,
			NextPC: pc + 4,
		}
	}
	s := &sliceStream{insts: []trace.DynInst{mkInst(0, 0), mkInst(1, 4)}}
	core, err := New(DefaultConfig(), s)
	if err != nil {
		t.Fatal(err)
	}
	st := core.Run()
	if st.CommittedReal != 2 {
		t.Errorf("committed = %d, want 2", st.CommittedReal)
	}
}
