package tectorwise

import (
	"testing"

	"olapmicro/internal/cpu"
	"olapmicro/internal/engine"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

var testData = tpch.Generate(0.02)

func newEnv(simd bool) (*Engine, *probe.Probe) {
	m := hw.Skylake().Scaled(8)
	as := probe.NewAddrSpace()
	var opts []Option
	if simd {
		opts = append(opts, WithSIMD())
	}
	e := New(testData, as, m.L1D.SizeBytes, m.SIMDLanes64, opts...)
	return e, probe.New(m, mem.AllPrefetchers())
}

func TestProjectionMatchesBruteForce(t *testing.T) {
	l := &testData.Lineitem
	cols := [4]*storage.Ints{&l.ExtendedPrice, &l.Discount, &l.Tax, &l.Quantity}
	for d := 1; d <= 4; d++ {
		var want int64
		for i := 0; i < l.Rows(); i++ {
			for c := 0; c < d; c++ {
				want += cols[c].At(i)
			}
		}
		e, p := newEnv(false)
		if got := e.Projection(p, d); got.Sum != want {
			t.Fatalf("p%d: got %d, want %d", d, got.Sum, want)
		}
	}
}

func TestVectorSizeAdaptsToL1(t *testing.T) {
	e, _ := newEnv(false)
	// Scaled L1D is 4 KB -> 128-value vectors keep intermediates L1-resident.
	if e.vec != 128 {
		t.Fatalf("vector size %d on a 4 KB L1D, want 128", e.vec)
	}
	full := New(testData, probe.NewAddrSpace(), hw.Skylake().L1D.SizeBytes, 8)
	if full.vec != 1024 {
		t.Fatalf("vector size %d on a 32 KB L1D, want 1024", full.vec)
	}
}

func TestSIMDReducesUops(t *testing.T) {
	eS, pS := newEnv(false)
	eV, pV := newEnv(true)
	a := eS.Projection(pS, 4)
	b := eV.Projection(pV, 4)
	if a.Sum != b.Sum {
		t.Fatalf("SIMD changed the answer: %d vs %d", a.Sum, b.Sum)
	}
	if pV.Ops.Uops() >= pS.Ops.Uops()/2 {
		t.Fatalf("SIMD uops %d not well below scalar %d", pV.Ops.Uops(), pS.Ops.Uops())
	}
	if pV.Ops.N[cpu.OpSIMD] == 0 {
		t.Fatal("SIMD mode must emit SIMD-class ops")
	}
	if pS.Ops.N[cpu.OpSIMD] != 0 {
		t.Fatal("scalar mode must not emit SIMD ops")
	}
}

func TestSelectionSelectionVectors(t *testing.T) {
	cut := engine.SelectionCutoffs{
		Selectivity: 0.5,
		ShipDate:    tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.ShipDate), 0.5),
		CommitDate:  tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.CommitDate), 0.5),
		ReceiptDate: tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.ReceiptDate), 0.5),
	}
	l := &testData.Lineitem
	var want int64
	for i := 0; i < l.Rows(); i++ {
		if l.ShipDate.At(i) < cut.ShipDate && l.CommitDate.At(i) < cut.CommitDate && l.ReceiptDate.At(i) < cut.ReceiptDate {
			want += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
		}
	}
	for _, predicated := range []bool{false, true} {
		e, p := newEnv(false)
		if got := e.Selection(p, cut, predicated); got.Sum != want {
			t.Fatalf("selection(pred=%v): got %d, want %d", predicated, got.Sum, want)
		}
	}
}

func TestJoinSizes(t *testing.T) {
	// Medium join brute force.
	var wantMd int64
	for i := range testData.PartSupp.PartKey.Len() {
		wantMd += testData.PartSupp.AvailQty.At(i) + testData.PartSupp.SupplyCost.At(i)
	}
	e, p := newEnv(false)
	as := probe.NewAddrSpace()
	if got := e.Join(p, as, engine.JoinMedium); got.Sum != wantMd {
		t.Fatalf("medium join: got %d, want %d", got.Sum, wantMd)
	}
}

func TestJoinProbeOnlyMatchesFullJoin(t *testing.T) {
	e, p := newEnv(false)
	as := probe.NewAddrSpace()
	full := e.Join(p, as, engine.JoinLarge)
	e2, p2 := newEnv(false)
	as2 := probe.NewAddrSpace()
	ht := e2.BuildLargeJoinTable(as2)
	probeOnly := e2.JoinProbeOnly(p2, ht)
	if full.Sum != probeOnly.Sum {
		t.Fatalf("probe-only %d != full join %d", probeOnly.Sum, full.Sum)
	}
}

func TestSIMDJoinSetsMLPBoost(t *testing.T) {
	e, p := newEnv(true)
	as := probe.NewAddrSpace()
	ht := e.BuildLargeJoinTable(as)
	e.JoinProbeOnly(p, ht)
	if p.RandMLPBoost <= 1 {
		t.Fatal("SIMD gathers must declare extra random MLP")
	}
}

func TestQ9AndQ18RunAndAgreeOnReruns(t *testing.T) {
	e, p := newEnv(false)
	as := probe.NewAddrSpace()
	q9a := e.Q9(p, as)
	e2, p2 := newEnv(false)
	q9b := e2.Q9(p2, probe.NewAddrSpace())
	if !q9a.Equal(q9b) {
		t.Fatalf("Q9 not deterministic: %v vs %v", q9a, q9b)
	}
	if q9a.Rows == 0 {
		t.Fatal("Q9 returned no groups")
	}
	q18 := e.Q18(p, as)
	if q18.Rows == 0 {
		t.Fatal("Q18 found no large orders at SF 0.02")
	}
}

func TestMaterializationTraffic(t *testing.T) {
	// The vectorized engine's intermediates stay cache-resident: its
	// DRAM traffic on projection p4 must be close to the columns' size,
	// not multiplied by materialization.
	e, p := newEnv(false)
	e.Projection(p, 4)
	colBytes := uint64(testData.Lineitem.Rows()) * 4 * 8
	if p.Mem.Stats.BytesFromMem > colBytes*3/2 {
		t.Fatalf("materialization leaked to DRAM: %d bytes vs %d scanned",
			p.Mem.Stats.BytesFromMem, colBytes)
	}
	if p.Ops.ExtraExecCycles == 0 {
		t.Fatal("materialization must add execution pressure")
	}
}

func TestName(t *testing.T) {
	a, _ := newEnv(false)
	b, _ := newEnv(true)
	if a.Name() != "Tectorwise" || b.Name() != "Tectorwise+SIMD" {
		t.Fatalf("names: %q / %q", a.Name(), b.Name())
	}
	if a.simd || !b.simd {
		t.Fatal("SIMD flags wrong")
	}
}
