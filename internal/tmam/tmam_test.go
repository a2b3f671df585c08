package tmam

import (
	"math"
	"testing"
	"testing/quick"

	"olapmicro/internal/cpu"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
)

func TestBreakdownSumsAndRatios(t *testing.T) {
	b := Breakdown{Total: 100, Retiring: 40, BranchMisp: 10, Icache: 5, Decoding: 5, Dcache: 30, Execution: 10}
	if b.Stall() != 60 {
		t.Fatalf("Stall = %v", b.Stall())
	}
	if b.StallRatio() != 0.6 || b.RetiringRatio() != 0.4 {
		t.Fatalf("ratios: %v %v", b.StallRatio(), b.RetiringRatio())
	}
	e, d, dec, ic, br := b.StallShares()
	if sum := e + d + dec + ic + br; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stall shares sum to %v", sum)
	}
}

func TestBreakdownZeroSafe(t *testing.T) {
	var b Breakdown
	if b.StallRatio() != 0 || b.RetiringRatio() != 0 {
		t.Fatal("zero breakdown ratios must be 0")
	}
	e, d, dec, ic, br := b.StallShares()
	if e+d+dec+ic+br != 0 {
		t.Fatal("zero breakdown shares must be 0")
	}
}

// computeOnly builds inputs for a pure-compute run.
func computeOnly(m *hw.Machine, uops uint64) Inputs {
	var ops cpu.OpCounts
	ops.N[cpu.OpALU] = uops
	return Inputs{Machine: m, Ops: ops, Frontend: cpu.Frontend{Machine: m}}
}

func TestAccountPureCompute(t *testing.T) {
	m := hw.Broadwell()
	prof := AccountInputs(computeOnly(m, 4000), Params{})
	bd := prof.Breakdown
	if bd.Retiring != 1000 {
		t.Fatalf("retiring = %v, want 1000 (4000 uops / width 4)", bd.Retiring)
	}
	if bd.Dcache != 0 || bd.BranchMisp != 0 {
		t.Fatalf("pure compute must not stall: %+v", bd)
	}
	if prof.BWBound {
		t.Fatal("pure compute cannot be bandwidth bound")
	}
}

func TestAccountBranchStalls(t *testing.T) {
	m := hw.Broadwell()
	in := computeOnly(m, 4000)
	in.Mispredicts = 100
	prof := AccountInputs(in, Params{})
	want := float64(100 * m.BranchMispCost)
	if prof.Breakdown.BranchMisp != want {
		t.Fatalf("branch stalls = %v, want %v", prof.Breakdown.BranchMisp, want)
	}
}

func TestAccountBandwidthFloor(t *testing.T) {
	m := hw.Broadwell()
	in := computeOnly(m, 400) // tiny compute
	in.MemStats.SeqMemLines = 1 << 20
	in.MemStats.BytesFromMem = 64 << 20
	in.PfDist = 16
	prof := AccountInputs(in, Params{})
	if !prof.BWBound {
		t.Fatal("a 64 MB transfer over negligible compute must be bandwidth bound")
	}
	// Time must be at least bytes / per-core sequential bandwidth.
	minSeconds := float64(64<<20) / m.PerCoreBW.Sequential
	if prof.Seconds < minSeconds*0.99 {
		t.Fatalf("time %v below the bandwidth floor %v", prof.Seconds, minSeconds)
	}
	if prof.BandwidthGBs > m.PerCoreBW.Sequential/hw.GB*1.01 {
		t.Fatalf("reported bandwidth %v exceeds the ceiling", prof.BandwidthGBs)
	}
}

func TestAccountRandomLatency(t *testing.T) {
	m := hw.Broadwell()
	in := computeOnly(m, 400)
	in.MemStats.RandMemLines = 1000
	in.MemStats.BytesFromMem = 64000
	prof := AccountInputs(in, Params{})
	want := 1000 * float64(m.MemLatency+m.PageWalk) / 2 // MLPRandom default 2
	if math.Abs(prof.Breakdown.Dcache-want) > want*0.01 {
		t.Fatalf("random dcache = %v, want %v", prof.Breakdown.Dcache, want)
	}
}

func TestAccountSIMDBoostReducesRandomStalls(t *testing.T) {
	m := hw.Skylake()
	in := computeOnly(m, 400)
	in.MemStats.RandMemLines = 1000
	base := AccountInputs(in, Params{})
	in.RandMLPBoost = 2
	boosted := AccountInputs(in, Params{})
	if boosted.Breakdown.Dcache >= base.Breakdown.Dcache {
		t.Fatal("gather MLP boost must reduce random stalls")
	}
}

func TestAccountPrefetchDistanceReducesStreamStalls(t *testing.T) {
	m := hw.Broadwell()
	in := computeOnly(m, 400)
	in.MemStats.SeqMemLines = 10000
	in.MemStats.BytesFromMem = 640000
	in.PfDist = 0
	off := AccountInputs(in, Params{})
	in.PfDist = 16
	on := AccountInputs(in, Params{})
	if on.Breakdown.Dcache >= off.Breakdown.Dcache {
		t.Fatalf("prefetch run-ahead must cut stream stalls: %v vs %v",
			on.Breakdown.Dcache, off.Breakdown.Dcache)
	}
}

func TestScaleCountsIdentity(t *testing.T) {
	in := computeOnly(hw.Broadwell(), 1000)
	in.MemStats.SeqMemLines = 123
	in.Mispredicts = 7
	out := in.ScaleCounts(1)
	if out.Ops.Uops() != in.Ops.Uops() || out.MemStats.SeqMemLines != 123 || out.Mispredicts != 7 {
		t.Fatal("scaling by 1 must be the identity")
	}
}

func TestScaleCountsProperty(t *testing.T) {
	f := func(uops uint32, lines uint32, n uint8) bool {
		threads := float64(n%15 + 2)
		in := computeOnly(hw.Broadwell(), uint64(uops))
		in.MemStats.SeqMemLines = uint64(lines)
		out := in.ScaleCounts(threads)
		return out.Ops.Uops() <= in.Ops.Uops() &&
			out.MemStats.SeqMemLines <= in.MemStats.SeqMemLines &&
			float64(out.Ops.Uops()) >= float64(in.Ops.Uops())/threads-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownComponentsSumToTotal(t *testing.T) {
	m := hw.Broadwell()
	in := computeOnly(m, 5000)
	in.Mispredicts = 50
	in.MemStats.RandMemLines = 100
	in.MemStats.SeqMemLines = 500
	in.MemStats.BytesFromMem = 600 * 64
	in.PfDist = 16
	prof := AccountInputs(in, Params{})
	bd := prof.Breakdown
	if math.Abs(bd.Retiring+bd.Stall()-bd.Total) > 1e-6*bd.Total {
		t.Fatalf("components %v + %v != total %v", bd.Retiring, bd.Stall(), bd.Total)
	}
}

func TestAccountFromProbe(t *testing.T) {
	m := hw.Broadwell().Scaled(8)
	p := probe.New(m, mem.AllPrefetchers())
	p.SeqLoad(1<<30, 1<<20, 8)
	p.ALU(1 << 17)
	prof := Account(p, Params{})
	if prof.Breakdown.Total <= 0 || prof.Seconds <= 0 {
		t.Fatalf("empty profile: %+v", prof)
	}
	if prof.Instructions != p.Ops.Uops() {
		t.Fatal("instruction count mismatch")
	}
}

func TestParamsDefaults(t *testing.T) {
	m := hw.Broadwell()
	p := Params{}.defaults(m)
	if p.MLPL2 == 0 || p.MLPL3 == 0 || p.MLPRandom == 0 || p.MLPIndep == 0 || p.MLPSeqNoPf == 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	if p.BWSeq != m.PerCoreBW.Sequential || p.BWRand != m.PerCoreBW.Random {
		t.Fatal("default ceilings must be the per-core bandwidths")
	}
	// Explicit values survive.
	q := Params{MLPRandom: 5, BWSeq: 1e9}.defaults(m)
	if q.MLPRandom != 5 || q.BWSeq != 1e9 {
		t.Fatal("explicit params overwritten")
	}
}
