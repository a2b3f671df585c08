package probe

import (
	"testing"
	"testing/quick"

	"olapmicro/internal/cpu"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
)

func TestAddrSpaceNoOverlap(t *testing.T) {
	as := NewAddrSpace()
	a := as.Alloc("a", 1000)
	b := as.Alloc("b", 1000)
	if a.Base+a.Size > b.Base {
		t.Fatalf("regions overlap: %+v %+v", a, b)
	}
	if a.Base == 0 {
		t.Fatal("address 0 must never be valid")
	}
}

func TestAddrSpaceNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := NewAddrSpace()
		var prevEnd uint64
		for _, s := range sizes {
			r := as.Alloc("r", uint64(s))
			if r.Base < prevEnd {
				return false
			}
			prevEnd = r.Base + r.Size
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrSpaceZeroSize(t *testing.T) {
	as := NewAddrSpace()
	r := as.Alloc("z", 0)
	if r.Size == 0 {
		t.Fatal("zero-size alloc must be promoted to 1 byte")
	}
}

func TestAddrSpaceAccounting(t *testing.T) {
	as := NewAddrSpace()
	as.Alloc("a", 100)
	as.Alloc("b", 200)
	if as.TotalBytes() != 300 {
		t.Fatalf("TotalBytes = %d", as.TotalBytes())
	}
	if len(as.regions) != 2 {
		t.Fatalf("regions = %d", len(as.regions))
	}
	if as.String() == "" {
		t.Fatal("String must describe the layout")
	}
}

func TestRegionAddrAt(t *testing.T) {
	r := Region{Name: "x", Base: 4096, Size: 100}
	if r.AddrAt(10) != 4106 {
		t.Fatalf("AddrAt = %d", r.AddrAt(10))
	}
}

func newTestProbe() *Probe {
	return New(hw.Broadwell().Scaled(8), mem.AllPrefetchers())
}

func TestProbeOpCounting(t *testing.T) {
	p := newTestProbe()
	p.ALU(3)
	p.Mul(2)
	p.SIMD(1)
	p.Dep(5)
	p.ExecPressure(4)
	if p.Ops.N[cpu.OpALU] != 3 || p.Ops.N[cpu.OpMul] != 2 || p.Ops.N[cpu.OpSIMD] != 1 {
		t.Fatalf("op counts wrong: %+v", p.Ops.N)
	}
	if p.Ops.DepCycles != 5 || p.Ops.ExtraExecCycles != 4 {
		t.Fatal("dep/pressure wrong")
	}
}

func TestProbeLoadStoreEmitMemoryEvents(t *testing.T) {
	p := newTestProbe()
	p.Load(1<<30, 8)
	p.Store(1<<30+4096, 8)
	p.SparseLoad(1<<30+8192, 8)
	if p.Ops.N[cpu.OpLoad] != 2 || p.Ops.N[cpu.OpStore] != 1 {
		t.Fatalf("load/store uops: %d/%d", p.Ops.N[cpu.OpLoad], p.Ops.N[cpu.OpStore])
	}
	if p.Mem.Stats.Accesses() != 3 {
		t.Fatalf("memory accesses = %d", p.Mem.Stats.Accesses())
	}
}

func TestProbeSeqLoadCountsElements(t *testing.T) {
	p := newTestProbe()
	p.SeqLoad(1<<30, 8000, 8)
	if p.Ops.N[cpu.OpLoad] != 1000 {
		t.Fatalf("SeqLoad uops = %d, want 1000", p.Ops.N[cpu.OpLoad])
	}
	if lines := p.Mem.Stats.Accesses(); lines != 8000/64+1 && lines != 8000/64 {
		t.Fatalf("SeqLoad line accesses = %d", lines)
	}
}

func TestProbeBranches(t *testing.T) {
	p := newTestProbe()
	for i := 0; i < 1000; i++ {
		p.BranchOp(1, true)
	}
	if p.Branch.Branches != 1000 {
		t.Fatalf("branches = %d", p.Branch.Branches)
	}
	if p.Branch.Mispredicts > 50 {
		t.Fatalf("always-taken branch mispredicted %d of 1000", p.Branch.Mispredicts)
	}
	p.LoopBranch(2, 500)
	if p.Ops.N[cpu.OpBranch] != 1500 {
		t.Fatalf("branch uops = %d", p.Ops.N[cpu.OpBranch])
	}
	p.BranchStatic(100, 10)
	if p.Branch.Mispredicts < 10 {
		t.Fatal("static mispredicts not recorded")
	}
}

func TestProbeResetCounters(t *testing.T) {
	p := newTestProbe()
	p.Load(1<<30, 8)
	p.ALU(10)
	p.BranchOp(1, true)
	p.SetFootprint(1024, 5)
	p.Reset()
	if p.Ops.Uops() != 0 || p.Branch.Branches != 0 || p.Mem.Stats.Accesses() != 0 {
		t.Fatal("Reset must clear counters")
	}
	p.Load(1<<30, 8)
	if p.Mem.Stats.L1Hits != 0 {
		t.Fatal("Reset must cold the caches")
	}
}
