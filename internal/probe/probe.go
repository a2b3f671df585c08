// Package probe is the instrumentation layer between the query engines
// and the micro-architecture simulator. Engines execute queries for
// real over generated TPC-H data and, as they go, report the events a
// native execution would generate: retired micro-ops by class, branch
// outcomes, and loads/stores with simulated virtual addresses. The
// events drive internal/mem and internal/cpu; internal/tmam turns the
// resulting counters into the paper's cycle breakdowns.
package probe

import (
	"olapmicro/internal/cpu"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
)

// Probe collects one profiled run's events. Every engine run carries
// one; profile-free answers come from relop.FastPlan, which emits no
// events at all.
type Probe struct {
	Machine  *hw.Machine
	Mem      *mem.Hierarchy
	Branch   *cpu.BranchPredictor
	Ops      cpu.OpCounts
	Frontend cpu.Frontend
	// RandMLPBoost (>1) declares extra memory-level parallelism on
	// random accesses, e.g. SIMD gather probes issuing independent
	// loads (Section 8.2). 0 means the default of 1.
	RandMLPBoost float64

	// secs is the gated per-operator attribution state (sections.go);
	// nil unless EnableSections was called.
	secs *sections
}

// New creates a probe for a machine with the given prefetcher config.
func New(m *hw.Machine, cfg mem.PrefetcherConfig) *Probe {
	return &Probe{
		Machine:  m,
		Mem:      mem.NewHierarchy(m, cfg),
		Branch:   cpu.NewBranchPredictor(14),
		Frontend: cpu.Frontend{Machine: m},
	}
}

// Reset clears all simulator state and counters.
func (p *Probe) Reset() {
	p.Mem.Reset()
	p.Branch.Reset()
	p.Ops = cpu.OpCounts{}
	p.Frontend = cpu.Frontend{Machine: p.Machine}
}

// Load records a demand load of size bytes at addr.
func (p *Probe) Load(addr, size uint64) {
	p.Ops.N[cpu.OpLoad]++
	p.Mem.Load(addr, size)
}

// SparseLoad records a demand load whose address is data-independent
// of prior loads (a filtered column read at a selection-vector
// position): DRAM misses overlap at line-fill-buffer depth.
func (p *Probe) SparseLoad(addr, size uint64) {
	p.Ops.N[cpu.OpLoad]++
	p.Mem.LoadIndep(addr, size)
}

// GatherLoad records the memory access of one lane of a SIMD gather
// without a per-lane micro-op: the gather instruction's uops are
// charged separately by the caller at lane granularity.
func (p *Probe) GatherLoad(addr, size uint64) {
	p.Mem.LoadIndep(addr, size)
}

// Store records a demand store of size bytes at addr.
func (p *Probe) Store(addr, size uint64) {
	p.Ops.N[cpu.OpStore]++
	p.Mem.Store(addr, size)
}

// SeqLoad streams totalBytes sequentially from base, counting one load
// micro-op per element of elemSize bytes. It is the batched form used
// by column scans.
func (p *Probe) SeqLoad(base, totalBytes, elemSize uint64) {
	if totalBytes == 0 {
		return
	}
	if elemSize == 0 {
		elemSize = 8
	}
	p.Ops.N[cpu.OpLoad] += totalBytes / elemSize
	p.Mem.Load(base, totalBytes)
}

// SeqStore streams totalBytes of stores from base (one store uop per
// element), the materialization pattern of the vectorized engine.
func (p *Probe) SeqStore(base, totalBytes, elemSize uint64) {
	if totalBytes == 0 {
		return
	}
	if elemSize == 0 {
		elemSize = 8
	}
	p.Ops.N[cpu.OpStore] += totalBytes / elemSize
	p.Mem.Store(base, totalBytes)
}

// ALU records n simple arithmetic/logic micro-ops.
func (p *Probe) ALU(n uint64) {
	p.Ops.N[cpu.OpALU] += n
}

// Mul records n multiply-class micro-ops (hash mixing, multiplication).
func (p *Probe) Mul(n uint64) {
	p.Ops.N[cpu.OpMul] += n
}

// SIMD records n vector micro-ops.
func (p *Probe) SIMD(n uint64) {
	p.Ops.N[cpu.OpSIMD] += n
}

// Dep adds cycles to the critical dependency chain (e.g. a loop-carried
// accumulator or a serial hash computation).
func (p *Probe) Dep(cycles uint64) {
	p.Ops.DepCycles += cycles
}

// ExecPressure adds execution-resource pressure cycles that the port
// maxima cannot express (store-buffer/AGU pressure of materialization-
// heavy execution); see engine.TectorwiseCosts.
func (p *Probe) ExecPressure(cycles uint64) {
	p.Ops.ExtraExecCycles += cycles
}

// BranchOp records a conditional branch at a call-site id with its
// outcome, running it through the branch predictor.
func (p *Probe) BranchOp(site uint64, taken bool) {
	p.Ops.N[cpu.OpBranch]++
	p.Branch.Observe(site, taken)
}

// BranchStatic records n control-flow branches of which misp
// mispredict, without running the predictor — the data-independent
// dispatch branches of an interpreter, whose misprediction rate is a
// property of the engine, not of the data.
func (p *Probe) BranchStatic(n, misp uint64) {
	p.Ops.N[cpu.OpBranch] += n
	p.Branch.Branches += n
	p.Branch.Mispredicts += misp
}

// LoopBranch records n iterations of a loop back-edge branch: all
// taken, predicted correctly except the final fall-through.
func (p *Probe) LoopBranch(site uint64, n uint64) {
	if n == 0 {
		return
	}
	p.Ops.N[cpu.OpBranch] += n
	p.Branch.Branches += n
	// The predictor all but never misses a loop back-edge; charge the
	// single exit misprediction.
	p.Branch.Mispredicts++
}

// SetFootprint declares the engine's hot-path instruction footprint and
// how many times it is traversed (frontend model inputs).
func (p *Probe) SetFootprint(bytes, traversals uint64) {
	p.Frontend.FootprintBytes = bytes
	p.Frontend.Traversals = traversals
}

// AddTraversals records n additional traversals of the configured
// footprint (a worker executing n more morsel chunks).
func (p *Probe) AddTraversals(n uint64) {
	p.Frontend.Traversals += n
}

// AddDecodeEvents feeds the decode-inefficiency model.
func (p *Probe) AddDecodeEvents(n uint64) {
	p.Frontend.DecodeEvents += n
}
