package typer

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

func cutoffs(sel float64) engine.SelectionCutoffs {
	return engine.SelectionCutoffs{
		Selectivity: sel,
		ShipDate:    tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.ShipDate), sel),
		CommitDate:  tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.CommitDate), sel),
		ReceiptDate: tpch.QuantileSorted(tpch.SortedCopy(&testData.Lineitem.ReceiptDate), sel),
	}
}

func TestProjectionMatchesBruteForce(t *testing.T) {
	e, p, _ := newEnv()
	l := &testData.Lineitem
	cols := [4]*storage.Ints{&l.ExtendedPrice, &l.Discount, &l.Tax, &l.Quantity}
	for d := 1; d <= 4; d++ {
		var want int64
		for i := 0; i < l.Rows(); i++ {
			for c := 0; c < d; c++ {
				want += cols[c].At(i)
			}
		}
		got := e.Projection(p, d)
		if got.Sum != want {
			t.Fatalf("p%d: got %d, want %d", d, got.Sum, want)
		}
	}
}

func TestProjectionEmitsEvents(t *testing.T) {
	e, p, _ := newEnv()
	e.Projection(p, 4)
	if p.Ops.Uops() == 0 {
		t.Fatal("no micro-ops emitted")
	}
	wantBytes := uint64(testData.Lineitem.Rows()) * 4 * 8
	if p.Mem.Stats.BytesFromMem < wantBytes/2 {
		t.Fatalf("memory traffic %d below half the scanned bytes %d", p.Mem.Stats.BytesFromMem, wantBytes)
	}
}

func TestSelectionBranchedEqualsPredicated(t *testing.T) {
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		e, p, _ := newEnv()
		br := e.Selection(p, cutoffs(sel), false)
		e2, p2, _ := newEnv()
		bf := e2.Selection(p2, cutoffs(sel), true)
		if br.Sum != bf.Sum {
			t.Fatalf("sel %.0f%%: branched %d != predicated %d", sel*100, br.Sum, bf.Sum)
		}
		if p2.Branch.Mispredicts > p.Branch.Mispredicts/10+5 {
			t.Fatalf("predicated run must have ~no mispredicts: %d vs %d",
				p2.Branch.Mispredicts, p.Branch.Mispredicts)
		}
	}
}

func TestSelectionMatchesBruteForce(t *testing.T) {
	cut := cutoffs(0.5)
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

func TestJoinLargeMatchesProjection(t *testing.T) {
	// Every lineitem has an order, so the large join's sum equals the
	// degree-4 projection sum.
	e, p, as := newEnv()
	j := e.Join(p, as, engine.JoinLarge)
	e2, p2, _ := newEnv()
	proj := e2.Projection(p2, 4)
	if j.Sum != proj.Sum {
		t.Fatalf("large join %d != projection %d", j.Sum, proj.Sum)
	}
}

func TestJoinSmallMatchesBruteForce(t *testing.T) {
	var want int64
	for i := range testData.Supplier.SuppKey.Len() {
		// Every supplier's nation exists.
		want += testData.Supplier.AcctBal.At(i) + testData.Supplier.SuppKey.At(i)
	}
	e, p, as := newEnv()
	if got := e.Join(p, as, engine.JoinSmall); got.Sum != want {
		t.Fatalf("small join: got %d, want %d", got.Sum, want)
	}
}

func TestQ6MatchesBruteForce(t *testing.T) {
	l := &testData.Lineitem
	var want int64
	for i := 0; i < l.Rows(); i++ {
		if l.ShipDate.At(i) >= tpch.DateQ6Lo && l.ShipDate.At(i) < tpch.DateQ6Hi &&
			l.Discount.At(i) >= 5 && l.Discount.At(i) <= 7 && l.Quantity.At(i) < 24 {
			want += l.ExtendedPrice.At(i) * l.Discount.At(i) / 100
		}
	}
	e, p, _ := newEnv()
	if got := e.Q6(p, false); got.Sum != want {
		t.Fatalf("Q6: got %d, want %d", got.Sum, want)
	}
	e2, p2, _ := newEnv()
	if got := e2.Q6(p2, true); got.Sum != want {
		t.Fatalf("predicated Q6: got %d, want %d", got.Sum, want)
	}
}

func TestQ1Aggregates(t *testing.T) {
	e, p, as := newEnv()
	r := e.Q1(p, as)
	if r.Rows != 4 {
		t.Fatalf("Q1 groups = %d, want 4", r.Rows)
	}
	// Sum of the first aggregate (sum_qty) over groups equals the
	// filtered column sum.
	l := &testData.Lineitem
	var want int64
	for i := 0; i < l.Rows(); i++ {
		if l.ShipDate.At(i) <= tpch.DateQ1Cutoff {
			want += l.Quantity.At(i)
		}
	}
	if r.Sum != want {
		t.Fatalf("Q1 total quantity %d, want %d", r.Sum, want)
	}
}

func TestQ18FindsLargeOrders(t *testing.T) {
	e, p, as := newEnv()
	r := e.Q18(p, as)
	// Brute force the HAVING count.
	qty := map[int64]int64{}
	l := &testData.Lineitem
	for i := 0; i < l.Rows(); i++ {
		qty[l.OrderKey.At(i)] += l.Quantity.At(i)
	}
	want := int64(0)
	for _, q := range qty {
		if q > 300 {
			want++
		}
	}
	if r.Rows != want {
		t.Fatalf("Q18 rows = %d, want %d", r.Rows, want)
	}
}

func TestGroupByTotals(t *testing.T) {
	e, p, as := newEnv()
	r, ht := e.GroupBy(p, as)
	var want int64
	for i := range testData.Lineitem.ExtendedPrice.Len() {
		v := testData.Lineitem.ExtendedPrice.At(i)
		want += v
	}
	if r.Sum != want {
		t.Fatalf("group-by total %d, want %d", r.Sum, want)
	}
	if ht.Len() != int(r.Rows) {
		t.Fatalf("table entries %d != groups %d", ht.Len(), r.Rows)
	}
	if cs := ht.ChainStats(); cs.Max < 2 {
		t.Fatalf("composite-key group table should show chains, max=%d", cs.Max)
	}
}
