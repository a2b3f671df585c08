// Package cpu models the core-side micro-architecture: the branch
// predictor, the execution-port structure and the instruction-delivery
// frontend of the machines in internal/hw.
package cpu

// BranchPredictor is a gshare-style two-level adaptive predictor:
// a global history register XOR-ed with the branch site indexes a
// table of 2-bit saturating counters. This is a reasonable stand-in
// for the Broadwell predictor at the level the paper reasons about:
// near-perfect on loop branches and skewed predicates, worst at 50 %
// data-dependent selectivity (Section 4).
type BranchPredictor struct {
	history uint64
	bits    uint
	table   []uint8 // 2-bit saturating counters, 0..3; >=2 predicts taken

	Branches    uint64
	Mispredicts uint64
}

// NewBranchPredictor builds a predictor with 2^bits counters.
// 14 bits (16K entries) approximates a server-class predictor for the
// workloads in the paper.
func NewBranchPredictor(bits uint) *BranchPredictor {
	t := make([]uint8, 1<<bits)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &BranchPredictor{bits: bits, table: t}
}

// Observe records the outcome of a branch at the given site and
// reports whether the predictor got it right.
func (p *BranchPredictor) Observe(site uint64, taken bool) (correct bool) {
	p.Branches++
	idx := (site ^ p.history) & (1<<p.bits - 1)
	c := p.table[idx]
	predicted := c >= 2
	correct = predicted == taken
	if !correct {
		p.Mispredicts++
	}
	if taken {
		if c < 3 {
			p.table[idx] = c + 1
		}
		p.history = p.history<<1 | 1
	} else {
		if c > 0 {
			p.table[idx] = c - 1
		}
		p.history = p.history << 1
	}
	return correct
}

// Reset clears history, counters and statistics.
func (p *BranchPredictor) Reset() {
	p.history = 0
	for i := range p.table {
		p.table[i] = 2
	}
	p.Branches = 0
	p.Mispredicts = 0
}
