package colstore

import (
	"testing"

	"olapmicro/internal/engine"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

var testData = tpch.Generate(0.02)

func newEnv() (*Engine, *probe.Probe, *probe.AddrSpace) {
	as := probe.NewAddrSpace()
	e := New(testData, as)
	p := probe.New(hw.Broadwell().Scaled(8), mem.AllPrefetchers())
	return e, p, as
}

func TestProjectionMatchesBruteForce(t *testing.T) {
	l := &testData.Lineitem
	for d := 1; d <= 4; d++ {
		cols := [4]*storage.Ints{&l.ExtendedPrice, &l.Discount, &l.Tax, &l.Quantity}
		var want int64
		for i := 0; i < l.Rows(); i++ {
			for c := 0; c < d; c++ {
				want += cols[c].At(i)
			}
		}
		e, p, _ := newEnv()
		if got := e.Projection(p, d); got.Sum != want {
			t.Fatalf("p%d: got %d, want %d", d, got.Sum, want)
		}
	}
}

func TestColumnScanReadsOnlyNeededColumns(t *testing.T) {
	e, p, _ := newEnv()
	e.Projection(p, 1)
	oneCol := uint64(testData.Lineitem.Rows()) * 8
	if p.Mem.Stats.BytesFromMem > oneCol*2 {
		t.Fatalf("column store read %d bytes for a single column of %d", p.Mem.Stats.BytesFromMem, oneCol)
	}
}

func TestLeanerThanRowStoreButHeavierThanCompiled(t *testing.T) {
	e, p, _ := newEnv()
	e.Projection(p, 4)
	perValue := float64(p.Ops.Uops()) / float64(testData.Lineitem.Rows()*4)
	if perValue < 10 || perValue > 200 {
		t.Fatalf("DBMS C retires %.0f uops/value, expected tens", perValue)
	}
}

func TestFootprintExceedsL1I(t *testing.T) {
	e, p, _ := newEnv()
	e.Projection(p, 4)
	if p.Frontend.FootprintBytes <= 32<<10 {
		t.Fatal("DBMS C's combined footprint must exceed L1I (its mild Icache stalls)")
	}
	if p.Frontend.L1IMisses() == 0 {
		t.Fatal("oversized footprint must produce Icache misses")
	}
}

func TestSelectionMatchesBruteForce(t *testing.T) {
	cut := engine.SelectionCutoffs{
		Selectivity: 0.1,
		ShipDate:    tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.ShipDate), 0.1),
		CommitDate:  tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.CommitDate), 0.1),
		ReceiptDate: tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.ReceiptDate), 0.1),
	}
	l := &testData.Lineitem
	var want int64
	for i := 0; i < l.Rows(); i++ {
		if l.ShipDate.At(i) < cut.ShipDate && l.CommitDate.At(i) < cut.CommitDate && l.ReceiptDate.At(i) < cut.ReceiptDate {
			want += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
		}
	}
	e, p, _ := newEnv()
	if got := e.Selection(p, cut, false); got.Sum != want {
		t.Fatalf("selection: got %d, want %d", got.Sum, want)
	}
}

func TestJoinThroughRowEngineCostsMore(t *testing.T) {
	var want int64
	for i := range testData.PartSupp.PartKey.Len() {
		want += testData.PartSupp.AvailQty.At(i) + testData.PartSupp.SupplyCost.At(i)
	}
	e, p, as := newEnv()
	if got := e.Join(p, as, engine.JoinMedium); got.Sum != want {
		t.Fatalf("medium join: got %d, want %d", got.Sum, want)
	}
	// The join path pays the row-engine conversion per tuple: uops per
	// probed tuple must approach DBMS R territory (the paper measures
	// DBMS C slower than DBMS R on joins).
	perTuple := float64(p.Ops.Uops()) / float64(testData.PartSupp.PartKey.Len())
	if perTuple < 500 {
		t.Fatalf("DBMS C join retires %.0f uops/tuple, expected interpretation-heavy", perTuple)
	}
}
