package tpch

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"olapmicro/internal/storage"
)

func TestCardinalities(t *testing.T) {
	d := Generate(0.01)
	if got := d.Nation.NationKey.Len(); got != NationCount {
		t.Fatalf("nation rows = %d", got)
	}
	if got := d.Region.RegionKey.Len(); got != RegionCount {
		t.Fatalf("region rows = %d", got)
	}
	if got := d.Supplier.SuppKey.Len(); got != 100 {
		t.Fatalf("supplier rows = %d, want 100", got)
	}
	if got := d.Customer.CustKey.Len(); got != 1500 {
		t.Fatalf("customer rows = %d, want 1500", got)
	}
	if got := d.Part.PartKey.Len(); got != 2000 {
		t.Fatalf("part rows = %d, want 2000", got)
	}
	if got := d.PartSupp.PartKey.Len(); got != 8000 {
		t.Fatalf("partsupp rows = %d, want 8000", got)
	}
	if got := d.Orders.OrderKey.Len(); got != 15000 {
		t.Fatalf("orders rows = %d, want 15000", got)
	}
	// Lineitem: 1-7 lines per order, expectation 4.
	l := d.Lineitem.Rows()
	if l < 15000*2 || l > 15000*7 {
		t.Fatalf("lineitem rows = %d, outside [30000, 105000]", l)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(0.01)
	b := Generate(0.01)
	if a.Lineitem.Rows() != b.Lineitem.Rows() {
		t.Fatal("row counts differ between runs")
	}
	for i := 0; i < a.Lineitem.Rows(); i += 97 {
		if a.Lineitem.ExtendedPrice.At(i) != b.Lineitem.ExtendedPrice.At(i) ||
			a.Lineitem.ShipDate.At(i) != b.Lineitem.ShipDate.At(i) {
			t.Fatalf("row %d differs between runs", i)
		}
	}
}

func TestValueDomains(t *testing.T) {
	d := Generate(0.02)
	l := &d.Lineitem
	for i := 0; i < l.Rows(); i++ {
		if q := l.Quantity.At(i); q < 1 || q > 50 {
			t.Fatalf("quantity[%d] = %d", i, q)
		}
		if dd := l.Discount.At(i); dd < 0 || dd > 10 {
			t.Fatalf("discount[%d] = %d", i, dd)
		}
		if tx := l.Tax.At(i); tx < 0 || tx > 8 {
			t.Fatalf("tax[%d] = %d", i, tx)
		}
		if l.ShipDate.At(i) <= l.OrderDateOf(i, d) {
			t.Fatalf("shipdate[%d] not after orderdate", i)
		}
		if l.ReceiptDate.At(i) <= l.ShipDate.At(i) {
			t.Fatalf("receiptdate[%d] not after shipdate", i)
		}
		rf := l.ReturnFlag.At(i)
		if rf != 'R' && rf != 'A' && rf != 'N' {
			t.Fatalf("returnflag[%d] = %c", i, rf)
		}
		ls := l.LineStatus.At(i)
		if ls != 'O' && ls != 'F' {
			t.Fatalf("linestatus[%d] = %c", i, ls)
		}
	}
}

// OrderDateOf finds the order date for lineitem i (test helper).
func (l *Lineitem) OrderDateOf(i int, d *Data) int64 {
	// Orders are keyed sparsely; binary search the orders table.
	key := l.OrderKey.At(i)
	idx := sort.Search(d.Orders.OrderKey.Len(), func(j int) bool {
		return d.Orders.OrderKey.At(j) >= key
	})
	return d.Orders.OrderDate.At(idx)
}

func TestOrderKeysSortedSparse(t *testing.T) {
	d := Generate(0.01)
	o := &d.Orders.OrderKey
	for i := 1; i < o.Len(); i++ {
		if o.At(i) <= o.At(i-1) {
			t.Fatalf("orderkeys not strictly increasing at %d", i)
		}
	}
}

func TestPartSuppPairsUniqueAndConsistent(t *testing.T) {
	d := Generate(0.01)
	seen := make(map[[2]int64]bool)
	supps := int64(d.Supplier.SuppKey.Len())
	for i := range d.PartSupp.PartKey.Len() {
		pk, sk := d.PartSupp.PartKey.At(i), d.PartSupp.SuppKey.At(i)
		if sk < 1 || sk > supps {
			t.Fatalf("ps_suppkey out of range: %d", sk)
		}
		key := [2]int64{pk, sk}
		if seen[key] {
			t.Fatalf("duplicate (part,supp) pair %v", key)
		}
		seen[key] = true
	}
}

func TestLineitemSuppliersMatchPartSupp(t *testing.T) {
	d := Generate(0.01)
	pairs := make(map[[2]int64]bool)
	for i := range d.PartSupp.PartKey.Len() {
		pairs[[2]int64{d.PartSupp.PartKey.At(i), d.PartSupp.SuppKey.At(i)}] = true
	}
	l := &d.Lineitem
	for i := 0; i < l.Rows(); i++ {
		if !pairs[[2]int64{l.PartKey.At(i), l.SuppKey.At(i)}] {
			t.Fatalf("lineitem %d references (part=%d,supp=%d) not in partsupp",
				i, l.PartKey.At(i), l.SuppKey.At(i))
		}
	}
}

func TestDates(t *testing.T) {
	if MustDate(1992, 1, 1) != 0 {
		t.Fatal("epoch must be day 0")
	}
	if MustDate(1992, 12, 31) != 365 { // 1992 is a leap year
		t.Fatalf("1992-12-31 = %d, want 365", MustDate(1992, 12, 31))
	}
	if MustDate(1994, 1, 1)-MustDate(1993, 1, 1) != 365 {
		t.Fatal("1993 must have 365 days")
	}
	if Year(0) != 1992 || Year(366) != 1993 {
		t.Fatalf("Year(0)=%d Year(366)=%d", Year(0), Year(366))
	}
}

func TestYearInvertsMustDate(t *testing.T) {
	f := func(y, m, d uint8) bool {
		year := 1992 + int(y%8)
		month := 1 + int(m%12)
		day := 1 + int(d%28)
		return Year(MustDate(year, month, day)) == year
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	d := Generate(0.01)
	col := &d.Lineitem.ShipDate
	before := col.Int64s()
	cp := col.Int64s()
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	for _, q := range []float64{0.1, 0.5, 0.9} {
		want := cp[int(q*float64(len(cp)))]
		if got := QuantileSorted(SortedCopy(col), q); got != want {
			t.Fatalf("QuantileSorted(%.1f) = %d, want %d", q, got, want)
		}
	}
	// Sorting for QuantileSorted must not modify the column.
	for i, x := range before {
		if col.At(i) != x {
			t.Fatal("SortedCopy modified the column")
		}
	}
}

func TestQuantileSelectivity(t *testing.T) {
	d := Generate(0.02)
	col := &d.Lineitem.ShipDate
	for _, q := range []float64{0.1, 0.5, 0.9} {
		cut := QuantileSorted(SortedCopy(col), q)
		n := 0
		for i := range col.Len() {
			if col.At(i) < cut {
				n++
			}
		}
		got := float64(n) / float64(col.Len())
		if math.Abs(got-q) > 0.02 {
			t.Fatalf("cutoff for %.0f%% yields %.1f%%", q*100, got*100)
		}
	}
}

func TestQ6Selectivity(t *testing.T) {
	d := Generate(0.05)
	l := &d.Lineitem
	pass := 0
	for i := 0; i < l.Rows(); i++ {
		if l.ShipDate.At(i) >= DateQ6Lo && l.ShipDate.At(i) < DateQ6Hi &&
			l.Discount.At(i) >= 5 && l.Discount.At(i) <= 7 && l.Quantity.At(i) < 24 {
			pass++
		}
	}
	sel := float64(pass) / float64(l.Rows())
	// The paper quotes ~2% overall Q6 selectivity.
	if sel < 0.005 || sel > 0.05 {
		t.Fatalf("Q6 selectivity = %.2f%%, want ~2%%", sel*100)
	}
}

func TestGreenPartSelectivity(t *testing.T) {
	d := Generate(0.05)
	green := 0
	for _, name := range d.Part.Name {
		for i := 0; i+5 <= len(name); i++ {
			if name[i:i+5] == "green" {
				green++
				break
			}
		}
	}
	sel := float64(green) / float64(len(d.Part.Name))
	if sel < 0.01 || sel > 0.15 {
		t.Fatalf("green part selectivity = %.1f%%, want a few percent", sel*100)
	}
}

func TestGenerateInvalidSFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(0) must panic")
		}
	}()
	Generate(0)
}

// The extremes every integer column records as it is generated are
// what plan compiles read instead of scanning: they must agree with a
// scan of every column of every table.
func TestExtremesMatchScan(t *testing.T) {
	d := Generate(0.01)
	for _, tb := range Schema() {
		for _, c := range tb.Cols {
			if c.Ints == nil {
				continue
			}
			v := c.Ints(d)
			mn, mx, ok := v.Extremes()
			wmn, wmx := v.At(0), v.At(0)
			for i := range v.Len() {
				wmn, wmx = min(wmn, v.At(i)), max(wmx, v.At(i))
			}
			if mn != wmn || mx != wmx || !ok {
				t.Errorf("%s: Extremes = %d..%d %v, scan says %d..%d", c.Name, mn, mx, ok, wmn, wmx)
			}
		}
	}
}

// TestColumnWidths pins the host widths generation chooses at SF 0.25
// for the columns the benchmark's scans read: every lineitem integer
// column is non-negative and fits in 4 bytes or fewer, and the
// account balances, which hold negative values, stay 8.
func TestColumnWidths(t *testing.T) {
	d := Generate(0.25)
	l := &d.Lineitem
	for _, tc := range []struct {
		name  string
		col   *storage.Ints
		width int
	}{
		{"l_quantity", &l.Quantity, 1},
		{"l_discount", &l.Discount, 1},
		{"l_tax", &l.Tax, 1},
		{"l_returnflag", &l.ReturnFlag, 1},
		{"l_shipdate", &l.ShipDate, 2},
		{"l_commitdate", &l.CommitDate, 2},
		{"l_receiptdate", &l.ReceiptDate, 2},
		{"l_partkey", &l.PartKey, 2},
		{"l_suppkey", &l.SuppKey, 2},
		{"o_orderdate", &d.Orders.OrderDate, 2},
		{"o_custkey", &d.Orders.CustKey, 2},
		{"l_orderkey", &l.OrderKey, 4},
		{"l_extendedprice", &l.ExtendedPrice, 4},
		{"o_totalprice", &d.Orders.TotalPrice, 4},
		{"s_acctbal", &d.Supplier.AcctBal, 8},
	} {
		if got := int(reflect.TypeOf(tc.col.Host()).Elem().Size()); got != tc.width {
			t.Errorf("%s: %d-byte host values, want %d", tc.name, got, tc.width)
		}
	}
}
