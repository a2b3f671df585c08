// Package tmam implements the Top-Down Micro-architecture Analysis
// Method (Yasin 2014, refined by Sirin et al. 2017) over the event
// counters produced by a profiled run. It is the simulator's
// equivalent of VTune's general-exploration analysis: it classifies
// every CPU cycle as Retiring or one of five stall categories —
// Branch mispredictions, Icache, Decoding, Dcache, Execution — the
// exact two-level breakdown every figure of the paper reports.
package tmam

import (
	"fmt"
	"strings"

	"olapmicro/internal/cpu"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
)

// Breakdown is one run's CPU-cycle classification. Retiring plus the
// five stall categories sum to Total.
type Breakdown struct {
	Total      float64 // total CPU cycles
	Retiring   float64 // useful cycles retiring micro-ops
	BranchMisp float64 // stalls from branch mispredictions
	Icache     float64 // stalls from instruction-cache misses
	Decoding   float64 // stalls from decode inefficiency
	Dcache     float64 // stalls from the data memory hierarchy
	Execution  float64 // stalls from saturated execution resources
}

// Stall is the sum of all stall categories.
func (b Breakdown) Stall() float64 {
	return b.BranchMisp + b.Icache + b.Decoding + b.Dcache + b.Execution
}

// StallRatio is Stall/Total in [0,1].
func (b Breakdown) StallRatio() float64 {
	if b.Total == 0 {
		return 0
	}
	return b.Stall() / b.Total
}

// RetiringRatio is Retiring/Total in [0,1].
func (b Breakdown) RetiringRatio() float64 {
	if b.Total == 0 {
		return 0
	}
	return b.Retiring / b.Total
}

// StallShares returns each stall category as a fraction of total stall
// cycles (the paper's second-level "Stall cycles (%)" plots), ordered
// Execution, Dcache, Decoding, Icache, BranchMisp like the legends.
func (b Breakdown) StallShares() (execution, dcache, decoding, icache, branch float64) {
	s := b.Stall()
	if s == 0 {
		return 0, 0, 0, 0, 0
	}
	return b.Execution / s, b.Dcache / s, b.Decoding / s, b.Icache / s, b.BranchMisp / s
}

// String renders the two-level breakdown as percentages.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "retiring %.1f%% stall %.1f%%", 100*b.RetiringRatio(), 100*b.StallRatio())
	e, d, dec, ic, br := b.StallShares()
	fmt.Fprintf(&sb, " [exec %.0f%% dcache %.0f%% decode %.0f%% icache %.0f%% brmisp %.0f%%]",
		100*e, 100*d, 100*dec, 100*ic, 100*br)
	return sb.String()
}

// Params tunes the analytical parts of the accounting. Zero values are
// replaced by documented defaults. They are hardware-behaviour
// constants, not per-experiment knobs; see DESIGN.md §5.
type Params struct {
	// MLPL2 and MLPL3 are the memory-level-parallelism divisors applied
	// to the visible latency of hits at those levels: an out-of-order
	// core overlaps several outstanding misses.
	MLPL2 float64
	MLPL3 float64
	// MLPRandom is the overlap achieved on DRAM-latency random misses
	// (hash probes); measured values on Broadwell are 2-4.
	MLPRandom float64
	// MLPIndep is the overlap on independent sparse loads (filtered
	// column reads): bounded by the line-fill buffers, not by pointer
	// dependencies.
	MLPIndep float64
	// MLPSeqNoPf is the overlap achieved on a sequential stream with
	// all prefetchers disabled (the OoO window alone).
	MLPSeqNoPf float64
	// BWSeq and BWRand are the bandwidth ceilings (bytes/second) used
	// for the bandwidth-floor computation; single-core experiments use
	// the machine's per-core values, multi-core the per-socket share.
	BWSeq  float64
	BWRand float64
}

func (p Params) defaults(m *hw.Machine) Params {
	if p.MLPL2 == 0 {
		p.MLPL2 = 4
	}
	if p.MLPL3 == 0 {
		p.MLPL3 = 3
	}
	if p.MLPRandom == 0 {
		p.MLPRandom = 2
	}
	if p.MLPIndep == 0 {
		p.MLPIndep = 8
	}
	if p.MLPSeqNoPf == 0 {
		p.MLPSeqNoPf = 3.5
	}
	if p.BWSeq == 0 {
		p.BWSeq = m.PerCoreBW.Sequential
	}
	if p.BWRand == 0 {
		p.BWRand = m.PerCoreBW.Random
	}
	return p
}

// Inputs is the counter snapshot the accounting consumes. It can be
// scaled, which is how the multi-core model derives one thread's share
// of a run.
type Inputs struct {
	Machine     *hw.Machine
	Ops         cpu.OpCounts
	Mispredicts uint64
	Frontend    cpu.Frontend
	MemStats    mem.Stats
	// PfDist is the effective prefetch run-ahead distance in lines
	// (0 when all prefetchers are disabled).
	PfDist float64
	// RandMLPBoost multiplies MLPRandom; vectorized SIMD gathers issue
	// independent probes and achieve roughly twice the overlap
	// (Section 8.2). 0 means 1.
	RandMLPBoost float64
}

// InputsFrom snapshots a probe.
func InputsFrom(p *probe.Probe) Inputs {
	return Inputs{
		Machine:      p.Machine,
		Ops:          p.Ops,
		Mispredicts:  p.Branch.Mispredicts,
		Frontend:     p.Frontend,
		MemStats:     p.Mem.Stats,
		PfDist:       p.Mem.EffectivePrefetchDistance(),
		RandMLPBoost: p.RandMLPBoost,
	}
}

// InputsFromCounters builds accounting inputs for one named section
// of a sectioned run: the section's extensive counter deltas paired
// with the probe's intensive quantities (instruction footprint,
// prefetch distance, MLP boost). Section profiles account exactly
// like whole runs, but AccountInputs is nonlinear (bandwidth floors,
// MLP discounts), so per-section times need not sum exactly to the
// run's total — the same caveat hardware per-region TMAM carries.
func InputsFromCounters(p *probe.Probe, c probe.Counters) Inputs {
	return Inputs{
		Machine:     p.Machine,
		Ops:         c.Ops,
		Mispredicts: c.Mispredicts,
		Frontend: cpu.Frontend{
			Machine:        p.Machine,
			FootprintBytes: p.Frontend.FootprintBytes,
			Traversals:     c.Traversals,
			DecodeEvents:   c.DecodeEvents,
		},
		MemStats:     c.Mem,
		PfDist:       p.Mem.EffectivePrefetchDistance(),
		RandMLPBoost: p.RandMLPBoost,
	}
}

// Add returns the element-wise sum of two counter snapshots — how the
// parallel executor forms the single-core-equivalent run from its
// workers' counters. Extensive counters add; intensive quantities
// (footprint, prefetch distance, MLP boost) take the maximum.
func (in Inputs) Add(o Inputs) Inputs {
	out := in
	if out.Machine == nil {
		out.Machine = o.Machine
	}
	out.Ops.Add(o.Ops)
	out.Mispredicts += o.Mispredicts
	out.Frontend.Traversals += o.Frontend.Traversals
	out.Frontend.DecodeEvents += o.Frontend.DecodeEvents
	if o.Frontend.FootprintBytes > out.Frontend.FootprintBytes {
		out.Frontend.FootprintBytes = o.Frontend.FootprintBytes
	}
	if out.Frontend.Machine == nil {
		out.Frontend.Machine = o.Frontend.Machine
	}
	out.MemStats.Add(o.MemStats)
	if o.PfDist > out.PfDist {
		out.PfDist = o.PfDist
	}
	if o.RandMLPBoost > out.RandMLPBoost {
		out.RandMLPBoost = o.RandMLPBoost
	}
	return out
}

// ScaleCounts divides all extensive counters by n (thread count),
// leaving intensive quantities (footprint, distances) unchanged.
func (in Inputs) ScaleCounts(n float64) Inputs {
	if n <= 0 {
		n = 1
	}
	out := in
	for i := range out.Ops.N {
		out.Ops.N[i] = uint64(float64(in.Ops.N[i]) / n)
	}
	out.Ops.DepCycles = uint64(float64(in.Ops.DepCycles) / n)
	out.Ops.ExtraExecCycles = uint64(float64(in.Ops.ExtraExecCycles) / n)
	out.Mispredicts = uint64(float64(in.Mispredicts) / n)
	out.Frontend.Traversals = uint64(float64(in.Frontend.Traversals) / n)
	out.Frontend.DecodeEvents = uint64(float64(in.Frontend.DecodeEvents) / n)
	s := &out.MemStats
	o := in.MemStats
	s.Loads = uint64(float64(o.Loads) / n)
	s.Stores = uint64(float64(o.Stores) / n)
	s.L1Hits = uint64(float64(o.L1Hits) / n)
	s.L2Hits = uint64(float64(o.L2Hits) / n)
	s.L3Hits = uint64(float64(o.L3Hits) / n)
	s.MemAccesses = uint64(float64(o.MemAccesses) / n)
	s.L1PfHits = uint64(float64(o.L1PfHits) / n)
	s.L2PfHits = uint64(float64(o.L2PfHits) / n)
	s.L3PfHits = uint64(float64(o.L3PfHits) / n)
	s.NLPfHits = uint64(float64(o.NLPfHits) / n)
	s.SeqMemLines = uint64(float64(o.SeqMemLines) / n)
	s.RandMemLines = uint64(float64(o.RandMemLines) / n)
	s.IndepMemLines = uint64(float64(o.IndepMemLines) / n)
	s.PfFillsStream = uint64(float64(o.PfFillsStream) / n)
	s.PfFillsNL = uint64(float64(o.PfFillsNL) / n)
	s.BytesFromMem = uint64(float64(o.BytesFromMem) / n)
	s.BytesToMem = uint64(float64(o.BytesToMem) / n)
	return out
}

// Profile is the full result of accounting one run: the cycle
// breakdown plus wall-clock time and the measured memory bandwidth,
// i.e. everything a paper figure needs.
type Profile struct {
	Breakdown Breakdown
	Seconds   float64
	// BandwidthGBs is DRAM traffic divided by run time in GB/s, the
	// number VTune memory-access analysis reports.
	BandwidthGBs float64
	// Instructions is the retired micro-op count.
	Instructions uint64
	// BWBound reports whether the run was limited by the bandwidth
	// ceiling rather than by latency/compute.
	BWBound bool
}

// Milliseconds is the run time in ms.
func (p Profile) Milliseconds() float64 { return p.Seconds * 1e3 }

// Account converts a probed run into a Profile with default ceilings.
func Account(p *probe.Probe, params Params) Profile {
	return AccountInputs(InputsFrom(p), params)
}

// AccountInputs is the heart of the reproduction; the steps mirror how
// TMAM attributes pipeline slots:
//
//  1. Retiring = uops / issue width.
//  2. Execution stalls = cycles the execution engine needs beyond
//     Retiring (port contention, dependency chains).
//  3. Branch stalls = mispredictions x flush penalty.
//  4. Icache/Decoding stalls from the frontend model.
//  5. Dcache stalls: visible latency of L2/L3/DRAM accesses after MLP
//     and prefetch run-ahead discounts, plus — when the demanded
//     bandwidth exceeds the ceiling — the excess time the core waits
//     on the saturated memory subsystem ("prefetchers fall behind").
func AccountInputs(in Inputs, params Params) Profile {
	m := in.Machine
	params = params.defaults(m)
	ms := &in.MemStats

	uops := in.Ops.Uops()
	retiring := float64(uops) / float64(m.IssueWidth)

	execFull := in.Ops.ExecCycles(m)
	execStall := execFull - retiring
	if execStall < 0 {
		execStall = 0
	}

	branchStall := float64(in.Mispredicts) * float64(m.BranchMispCost)
	icacheStall := in.Frontend.IcacheStallCycles()
	decodeStall := in.Frontend.DecodeStallCycles()

	// Visible latency of on-chip misses. Demand hits on lines a
	// prefetcher installed are charged by the stream formula below,
	// not as plain L2/L3 hits.
	l2Demand := float64(ms.L2Hits) - float64(ms.L2PfHits)
	if l2Demand < 0 {
		l2Demand = 0
	}
	l3Demand := float64(ms.L3Hits) - float64(ms.L3PfHits)
	if l3Demand < 0 {
		l3Demand = 0
	}
	l2Vis := l2Demand * float64(m.L1D.MissLatency) / params.MLPL2
	l3Vis := l3Demand * float64(m.L2.MissLatency) / params.MLPL3

	// Lines that came from DRAM as part of a stream — whether fetched
	// by a prefetcher (pf-hits) or demanded before the prefetcher
	// caught up (SeqMemLines) — have a steady-state visible latency of
	// DRAM latency divided by the total memory-level parallelism: the
	// OoO window's own overlap plus the prefetcher's run-ahead depth.
	// This is where "hardware prefetchers are not fast enough"
	// (Section 9) comes from: even at depth 16 a residual
	// latency/(3.5+16) per line remains visible.
	memLat := float64(m.MemLatency)
	streamLines := float64(ms.L1PfHits) + float64(ms.L2PfHits) + float64(ms.L3PfHits) + float64(ms.SeqMemLines)
	randLines := float64(ms.RandMemLines)

	boost := in.RandMLPBoost
	if boost <= 0 {
		boost = 1
	}
	// Dependent random misses to huge regions additionally pay a TLB
	// page walk; independent sparse loads walk pages in order and stay
	// TLB-friendly.
	randVis := randLines * (memLat + float64(m.PageWalk)) / (params.MLPRandom * boost)
	indepVis := float64(ms.IndepMemLines) * memLat / params.MLPIndep
	latTerm := memLat / (params.MLPSeqNoPf + in.PfDist)
	seqVis := streamLines * latTerm

	seqBytes := float64(ms.SeqMemLines)*hw.Line + float64(ms.PfFillsStream)*hw.Line + float64(ms.BytesToMem)
	if streamLines > 0 {
		// How much of the residual prefetch latency is visible depends
		// on how hard the stream pushes against the bandwidth ceiling:
		// a bare scan demands data as fast as the memory system can
		// deliver, leaving the prefetcher no slack to run ahead
		// (latency exposed); a compute-dense consumer (Q1) demands a
		// fraction of the ceiling and the prefetcher stays ahead.
		baseNoSeq := retiring + execStall + branchStall + icacheStall + decodeStall +
			l2Vis + l3Vis + randVis + indepVis
		if baseNoSeq > 0 {
			demand := seqBytes / m.Seconds(baseNoSeq)
			util := demand / params.BWSeq
			if util > 1 {
				util = 1
			}
			seqVis *= util
		}
	}

	latStall := l2Vis + l3Vis + randVis + indepVis + seqVis
	base := retiring + execStall + branchStall + icacheStall + decodeStall + latStall

	// Bandwidth floor: the run cannot finish faster than the memory
	// traffic can be transferred at the configured ceiling.
	randBytes := float64(ms.RandMemLines+ms.IndepMemLines+ms.PfFillsNL) * hw.Line
	bwSeconds := seqBytes/params.BWSeq + randBytes/params.BWRand
	bwFloor := m.Cycles(bwSeconds)

	dcacheStall := latStall
	total := base
	bwBound := false
	if bwFloor > base {
		// The memory subsystem is saturated: the extra wait is a data
		// stall on a full load/store queue.
		dcacheStall += bwFloor - base
		total = bwFloor
		bwBound = true
	}

	bd := Breakdown{
		Total:      total,
		Retiring:   retiring,
		BranchMisp: branchStall,
		Icache:     icacheStall,
		Decoding:   decodeStall,
		Dcache:     dcacheStall,
		Execution:  execStall,
	}
	seconds := m.Seconds(total)
	var bw float64
	if seconds > 0 {
		bw = float64(ms.TotalBytes()) / seconds / hw.GB
	}
	return Profile{
		Breakdown:    bd,
		Seconds:      seconds,
		BandwidthGBs: bw,
		Instructions: uops,
		BWBound:      bwBound,
	}
}
