package rowstore

import (
	"testing"

	"olapmicro/internal/engine"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
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
	var want int64
	for i := 0; i < l.Rows(); i++ {
		want += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
	}
	e, p, _ := newEnv()
	if got := e.Projection(p, 4); got.Sum != want {
		t.Fatalf("projection: got %d, want %d", got.Sum, want)
	}
}

func TestInterpretationOverheadDominates(t *testing.T) {
	e, p, _ := newEnv()
	e.Projection(p, 1)
	perTuple := float64(p.Ops.Uops()) / float64(testData.Lineitem.Rows())
	if perTuple < 500 {
		t.Fatalf("row store retires %.0f uops/tuple — the interpretation overhead is its defining property", perTuple)
	}
}

func TestRowStoreReadsWholeRows(t *testing.T) {
	// Reading one attribute still streams 136-byte tuples.
	e, p, _ := newEnv()
	e.Projection(p, 1)
	minBytes := uint64(testData.Lineitem.Rows()) * lineitemRowBytes
	if p.Mem.Stats.BytesFromMem < minBytes/2 {
		t.Fatalf("row scan transferred %d bytes, expected at least ~%d", p.Mem.Stats.BytesFromMem, minBytes)
	}
}

func TestFootprintFitsL1I(t *testing.T) {
	e, p, _ := newEnv()
	e.Projection(p, 4)
	if p.Frontend.FootprintBytes > 32<<10 {
		t.Fatal("DBMS R's hot path must fit L1I (no-Icache-stall finding)")
	}
	if p.Frontend.L1IMisses() != 0 {
		t.Fatal("warm DBMS R must not miss L1I")
	}
}

func TestSelectionMatchesBruteForce(t *testing.T) {
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
	e, p, _ := newEnv()
	if got := e.Selection(p, cut, false); got.Sum != want {
		t.Fatalf("selection: got %d, want %d", got.Sum, want)
	}
}

func TestJoinsMatchBruteForce(t *testing.T) {
	var wantSm, wantMd int64
	for i := range testData.Supplier.SuppKey.Len() {
		wantSm += testData.Supplier.AcctBal.At(i) + testData.Supplier.SuppKey.At(i)
	}
	for i := range testData.PartSupp.PartKey.Len() {
		wantMd += testData.PartSupp.AvailQty.At(i) + testData.PartSupp.SupplyCost.At(i)
	}
	e, p, as := newEnv()
	if got := e.Join(p, as, engine.JoinSmall); got.Sum != wantSm {
		t.Fatalf("small join: got %d, want %d", got.Sum, wantSm)
	}
	if got := e.Join(p, as, engine.JoinMedium); got.Sum != wantMd {
		t.Fatalf("medium join: got %d, want %d", got.Sum, wantMd)
	}
}
