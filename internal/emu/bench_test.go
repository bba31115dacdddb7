package emu

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkEmulatorDecodeCache measures the emulator's decoded dispatch
// over 100,000 records of crafty; bytes stand in for instructions, so
// B/s = inst/s. The ratio EmulatorUncached/EmulatorDecodeCache is the
// decode cache's realised speedup.
func BenchmarkEmulatorDecodeCache(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	p := bench.Build(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := MustNew(p)
		e.Restart = true
		var d trace.DynInst
		b.StartTimer()
		for n := 0; n < 100_000; n++ {
			if !e.NextInto(&d) {
				b.Fatal("halted")
			}
		}
	}
	b.SetBytes(100_000)
}

// BenchmarkEmulatorUncached measures the reference interpreter — the
// per-instruction re-decode path the decode cache replaces — on the same
// stream.
func BenchmarkEmulatorUncached(b *testing.B) {
	bench, _ := workload.ByName("crafty")
	p := bench.Build(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := newRef(p)
		r.Restart = true
		var d trace.DynInst
		b.StartTimer()
		for n := 0; n < 100_000; n++ {
			if !r.NextInto(&d) {
				b.Fatal("halted")
			}
		}
	}
	b.SetBytes(100_000)
}

// BenchmarkNewFromCheckpoint measures what a sampled window pays to fork
// the stream on mcf, whose 1 MB data segment it rarely writes: a fresh
// emulator restored from a checkpoint, then 3,000 instructions.
func BenchmarkNewFromCheckpoint(b *testing.B) {
	bench, _ := workload.ByName("mcf")
	p := bench.Build(42)
	e := MustNew(p)
	e.Restart = true
	for n := 0; n < 200_000; n++ {
		if _, ok := e.Next(); !ok {
			b.Fatal("halted")
		}
	}
	cp := e.Checkpoint()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewFromCheckpoint(p, cp)
		if err != nil {
			b.Fatal(err)
		}
		r.Restart = true
		for n := 0; n < 3_000; n++ {
			if _, ok := r.Next(); !ok {
				b.Fatal("halted")
			}
		}
	}
}
