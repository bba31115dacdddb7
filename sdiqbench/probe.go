package main

import (
	"fmt"
	"time"
)

// Shared hosts change speed under the benchmark: on the two-vCPU
// development machine, identical figure-suite campaigns a few minutes
// apart differ by 20% or more whatever the program does, and no
// statistic over one run removes a drift slower than the run. So each
// untraced pass also times a fixed probe on every slot — between the
// local workloads' campaigns, and around the service's closed loop —
// and the contract's end-to-end metrics are host times scaled to the
// speed at which the probe takes refProbeS. The probe is the
// benchmark's own code, the same on both sides of a comparison, so a
// change to the program moves a scaled value exactly as it moves the
// measured one. WORKLOADS.md ("Host speed") says what it cannot follow.

// probeSteps sizes the probe: a fraction of a second on every slot.
const probeSteps = 30_000_000

// refProbeS is the probe time that defines the reference speed.
const refProbeS = 0.1

// probeSink keeps the probe's result live, so the compiler keeps its
// work.
var probeSink uint64

// probeKernel runs a toy pipeline model over ~100 KB of state: a fixed
// program of 1024 random instructions, looped, through a register file,
// a direct-mapped tag array, a 2-bit branch-predictor table and a
// reorder ring — the table lookups, data-dependent branches and ring
// updates the simulator's own loops are made of.
func probeKernel(steps int, seed uint64) uint64 {
	const progLen, tableLen, ringLen = 1 << 10, 1 << 14, 64
	type inst struct{ op, a, b uint32 }
	prog := make([]inst, progLen)
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := range prog {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		prog[i] = inst{op: uint32(x & 3), a: uint32(x >> 8), b: uint32(x >> 40)}
	}
	pred := make([]uint8, tableLen)
	tags := make([]uint32, tableLen)
	var regs [16]uint32
	var ring [ringLen]uint32
	var pc, hits uint32
	for step := range steps {
		in := &prog[pc%progLen]
		pc++
		switch in.op {
		case 0: // ALU
			regs[in.a%16] += regs[in.b%16] ^ in.a
		case 1: // load through the tag array
			addr := regs[in.a%16] + in.b
			if set := addr % tableLen; tags[set] == addr/tableLen {
				hits++
			} else {
				tags[set] = addr / tableLen
			}
		case 2: // branch through the predictor
			i := (pc ^ regs[in.b%16]) % tableLen
			taken := regs[in.a%16]&1 == 1
			if taken != (pred[i] >= 2) {
				hits--
			}
			if taken {
				pred[i] = min(pred[i]+1, 3)
				pc += in.b % 8
			} else {
				pred[i] = max(pred[i], 1) - 1
			}
		default: // register move
			regs[in.b%16] = regs[in.a%16]*3 + 1
		}
		ring[step%ringLen] = pc
	}
	return uint64(hits) + uint64(regs[0]) + uint64(ring[0])
}

// probeHost runs the probe on every slot at once and returns its wall
// time in seconds: how long the host takes, now, for fixed work on
// every CPU a workload uses.
func probeHost(slots int) float64 {
	start := time.Now()
	sums := make(chan uint64, slots) // one send per goroutine, so none blocks
	for i := range slots {
		go func() { sums <- probeKernel(probeSteps, uint64(i)+1) }()
	}
	var sum uint64
	for range slots {
		sum += <-sums
	}
	probeSink += sum
	return time.Since(start).Seconds()
}

// hostScale records the probes and returns the factor that takes a
// host time measured in this run to the reference speed: refProbeS over
// the probes' median.
func hostScale(out *outcome, probes []float64) float64 {
	p := median(probes)
	put(out.extra, "host.probe_s", p, "s")
	out.notes["host.probe_s"] = fmt.Sprintf("median of %.4f; %g at the reference speed", probes, refProbeS)
	return refProbeS / p
}

// atReference records the contract's end-to-end metrics — set-up time,
// delivered rate, and the median and tail of the campaign times — at
// the reference speed, and each as measured under "<name>.raw".
func atReference(out *outcome, scale, setup, rate float64, times []float64) {
	scaled := make([]float64, len(times))
	for i, t := range times {
		scaled[i] = t * scale
	}
	put(out.endToEnd, "setup_s", setup*scale, "s")
	put(out.endToEnd, "minst_per_s", rate/scale, "Minst/s")
	put(out.endToEnd, "campaign_p50_s", median(scaled), "s")
	tailMetric(out.endToEnd, out.notes, "campaign_tail_s", scaled, "s")
	rawTail, _ := tail(times)
	put(out.extra, "setup_s.raw", setup, "s")
	put(out.extra, "minst_per_s.raw", rate, "Minst/s")
	put(out.extra, "campaign_p50_s.raw", median(times), "s")
	put(out.extra, "campaign_tail_s.raw", rawTail, "s")
}
