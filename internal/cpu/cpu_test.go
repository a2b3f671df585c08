package cpu

import (
	"testing"

	"olapmicro/internal/hw"
)

func TestBranchPredictorLearnsLoop(t *testing.T) {
	p := NewBranchPredictor(14)
	for i := 0; i < 10000; i++ {
		p.Observe(1, true)
	}
	if r := mispredictRate(p); r > 0.01 {
		t.Fatalf("always-taken branch mispredicted %.2f%%", 100*r)
	}
}

func TestBranchPredictorBiasedBranch(t *testing.T) {
	p := NewBranchPredictor(14)
	x := uint64(7)
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1
		p.Observe(1, x%10 == 0) // 10% taken
	}
	if r := mispredictRate(p); r > 0.25 {
		t.Fatalf("10%%-biased branch mispredicted %.1f%%, want <25%%", 100*r)
	}
}

func TestBranchPredictorWorstAtFiftyPercent(t *testing.T) {
	rate := func(perMille uint64) float64 {
		p := NewBranchPredictor(14)
		x := uint64(99)
		for i := 0; i < 200000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			p.Observe(3, x%1000 < perMille)
		}
		return mispredictRate(p)
	}
	r10, r50, r90 := rate(100), rate(500), rate(900)
	if !(r50 > r10 && r50 > r90) {
		t.Fatalf("misprediction must peak at 50%%: got %.3f / %.3f / %.3f", r10, r50, r90)
	}
	if r50 < 0.25 {
		t.Fatalf("50%% random branch mispredicted only %.1f%%", 100*r50)
	}
}

func TestBranchPredictorReset(t *testing.T) {
	p := NewBranchPredictor(10)
	p.Observe(1, true)
	p.Reset()
	if p.Branches != 0 || p.Mispredicts != 0 {
		t.Fatal("Reset must clear counters")
	}
}

func TestOpCountsUopsAndAdd(t *testing.T) {
	var a OpCounts
	a.N[OpALU] = 10
	a.N[OpLoad] = 5
	a.DepCycles = 3
	b := a
	a.Add(b)
	if a.Uops() != 30 {
		t.Fatalf("Uops = %d, want 30", a.Uops())
	}
	if a.DepCycles != 6 {
		t.Fatalf("DepCycles = %d, want 6", a.DepCycles)
	}
}

func TestExecCyclesWidthBound(t *testing.T) {
	m := hw.Broadwell()
	var c OpCounts
	c.N[OpALU] = 400 // 4 ALU ports: 100 cycles; width 400/4 = 100
	got := c.ExecCycles(m)
	if got != 100 {
		t.Fatalf("ExecCycles = %v, want 100", got)
	}
}

func TestExecCyclesDependencyBound(t *testing.T) {
	m := hw.Broadwell()
	var c OpCounts
	c.N[OpALU] = 40
	c.DepCycles = 500
	if got := c.ExecCycles(m); got != 500 {
		t.Fatalf("dependency chain must bound execution: got %v", got)
	}
}

func TestExecCyclesStorePortBound(t *testing.T) {
	m := hw.Broadwell()
	var c OpCounts
	c.N[OpStore] = 300 // single store port
	c.N[OpALU] = 100
	if got := c.ExecCycles(m); got != 300 {
		t.Fatalf("store port must bound execution: got %v", got)
	}
}

func TestExecCyclesExtraPressureAdds(t *testing.T) {
	m := hw.Broadwell()
	var c OpCounts
	c.N[OpALU] = 400
	c.ExtraExecCycles = 50
	if got := c.ExecCycles(m); got != 150 {
		t.Fatalf("extra pressure must add: got %v, want 150", got)
	}
}

func TestFrontendSmallFootprintNoMisses(t *testing.T) {
	f := Frontend{Machine: hw.Broadwell(), FootprintBytes: 8 << 10, Traversals: 1 << 20}
	if f.L1IMisses() != 0 {
		t.Fatal("a footprint inside L1I must not miss after warm-up")
	}
	if f.IcacheStallCycles() != 0 {
		t.Fatal("no misses -> no stall cycles")
	}
}

func TestFrontendLargeFootprintScalesWithTraversals(t *testing.T) {
	f := Frontend{Machine: hw.Broadwell(), FootprintBytes: 64 << 10, Traversals: 1000}
	few := f.L1IMisses()
	f.Traversals = 100000
	many := f.L1IMisses()
	if many <= few {
		t.Fatalf("re-traversals of an oversized footprint must re-miss: %d vs %d", few, many)
	}
}

func TestFrontendDecodeStalls(t *testing.T) {
	f := Frontend{Machine: hw.Broadwell(), DecodeEvents: 100}
	want := float64(100 * hw.Broadwell().DecodePenalty)
	if got := f.DecodeStallCycles(); got != want {
		t.Fatalf("DecodeStallCycles = %v, want %v", got, want)
	}
}

func TestOpClassString(t *testing.T) {
	names := map[OpClass]string{OpALU: "alu", OpMul: "mul", OpLoad: "load",
		OpStore: "store", OpBranch: "branch", OpSIMD: "simd"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("OpClass(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// mispredictRate is Mispredicts/Branches.
func mispredictRate(p *BranchPredictor) float64 {
	return float64(p.Mispredicts) / float64(p.Branches)
}
