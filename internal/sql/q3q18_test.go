package sql

import (
	"fmt"
	"sort"
	"testing"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/tectorwise"
	"olapmicro/internal/engine/typer"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
)

// The paper's join/sort-dominated queries in this SQL subset (segment
// codes and fixed-point integers as everywhere else in the repo).
const (
	q3SQL = `select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue,
o_orderdate, o_shippriority
from lineitem
join orders on l_orderkey = o_orderkey
join customer on o_custkey = c_custkey
where c_mktsegment = 1 and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15'
group by l_orderkey, o_orderdate, o_shippriority
order by revenue desc, o_orderdate
limit 10`

	q18SQL = `select c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity)
from lineitem
join orders on l_orderkey = o_orderkey
join customer on o_custkey = c_custkey
group by c_custkey, o_orderkey, o_orderdate, o_totalprice
having sum(l_quantity) > 300
order by o_totalprice desc, o_orderdate
limit 100`
)

// hardcodedTop runs the ordered-output hardcoded twins.
func hardcodedTop(t *testing.T, engName, query string) engine.Result {
	t.Helper()
	d, m := cv(t)
	as := probe.NewAddrSpace()
	p := probe.New(m, mem.AllPrefetchers())
	if engName == "typer" {
		e := typer.New(d, as)
		if query == "q3" {
			return e.Q3(p, as)
		}
		return e.Q18Top(p, as)
	}
	e := tectorwise.New(d, as, m.L1D.SizeBytes, m.SIMDLanes64)
	if query == "q3" {
		return e.Q3(p, as)
	}
	return e.Q18Top(p, as)
}

// Q3 and Q18 through the full parse -> plan -> execute path must
// reproduce their independently-written hardcoded twins on both
// engines, ordered output and all.
func TestQ3Q18SQLMatchesHardcodedTwins(t *testing.T) {
	d, m := cv(t)
	for _, tc := range []struct{ name, sql, query string }{
		{"Q3", q3SQL, "q3"},
		{"Q18", q18SQL, "q18"},
	} {
		for _, engName := range []string{"typer", "tectorwise"} {
			c, a, err := Run(d, m, tc.sql, Options{Engine: engName})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, engName, err)
			}
			want := hardcodedTop(t, engName, tc.query)
			if !a.Result.Equal(want) {
				t.Errorf("%s on %s: SQL-planned %v != hardcoded %v\nplan:\n%s",
					tc.name, engName, a.Result, want, c.Pipeline)
			}
			if a.Result.Rows == 0 {
				t.Errorf("%s on %s: ordered output is empty", tc.name, engName)
			}
		}
	}
}

// Q3 and Q18 must return bit-identical results on both engines at
// every thread count in 1..8 — the ordered, limited output included
// (per-worker partials merge through the deterministic total order).
func TestQ3Q18ThreadSweepIdentical(t *testing.T) {
	d, m := cv(t)
	for _, tc := range []struct{ name, sql string }{
		{"Q3", q3SQL},
		{"Q18", q18SQL},
	} {
		var base *engine.Result
		for _, engName := range []string{"typer", "tectorwise"} {
			c, err := Compile(d, m, tc.sql, Options{Engine: engName})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, engName, err)
			}
			counts := []int{1, 2, 3, 4, 5, 6, 7, 8}
			if testing.Short() {
				counts = []int{1, 4} // the -race smoke trims the sweep
			}
			for _, threads := range counts {
				a, err := c.ExecuteThreads(threads)
				if err != nil {
					t.Fatalf("%s on %s x%d: %v", tc.name, engName, threads, err)
				}
				if base == nil {
					r := a.Result
					base = &r
					continue
				}
				if !a.Result.Equal(*base) {
					t.Errorf("%s on %s x%d: %v != baseline %v",
						tc.name, engName, threads, a.Result, *base)
				}
			}
		}
	}
}

// The post-aggregation operators against brute-force ground truth
// computed straight from the generated columns.
func TestOrderByLimitHavingSemantics(t *testing.T) {
	d, m := cv(t)

	// Group sums of l_quantity by l_returnflag, computed by hand.
	sums := map[byte]int64{}
	for i := range d.Lineitem.ReturnFlag.Len() {
		f := d.Lineitem.ReturnFlag.At(i)
		sums[byte(f)] += d.Lineitem.Quantity.At(i)
	}
	type grp struct {
		flag byte
		sum  int64
	}
	var groups []grp
	for f, s := range sums {
		groups = append(groups, grp{f, s})
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].sum != groups[j].sum {
			return groups[i].sum > groups[j].sum
		}
		return groups[i].flag < groups[j].flag
	})

	// ORDER BY ... DESC LIMIT 1 must keep exactly the largest group.
	q := "select sum(l_quantity) from lineitem group by l_returnflag order by sum(l_quantity) desc limit 1"
	_, a, err := Run(d, m, q, Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Rows != 1 || a.Result.Sum != groups[0].sum {
		t.Errorf("top-1 group: got %v, want sum %d", a.Result, groups[0].sum)
	}

	// The ordered checksum must pin the order: ascending and descending
	// over the same two rows must differ.
	qAsc := "select sum(l_quantity) from lineitem group by l_linestatus order by sum(l_quantity)"
	qDesc := qAsc + " desc"
	_, asc, err := Run(d, m, qAsc, Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	_, desc, err := Run(d, m, qDesc, Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	if asc.Result.Sum != desc.Result.Sum || asc.Result.Rows != desc.Result.Rows {
		t.Fatalf("sort direction changed the row set: %v vs %v", asc.Result, desc.Result)
	}
	if asc.Result.Check == desc.Result.Check {
		t.Error("ordered checksum does not depend on output order")
	}

	// Aliases and positions name the same key: three spellings of the
	// same ORDER BY must agree exactly.
	spellings := []string{
		"select sum(l_quantity) as q from lineitem group by l_returnflag order by q desc limit 2",
		"select sum(l_quantity) from lineitem group by l_returnflag order by sum(l_quantity) desc limit 2",
		"select sum(l_quantity) from lineitem group by l_returnflag order by 1 desc limit 2",
	}
	var first engine.Result
	for i, s := range spellings {
		_, r, err := Run(d, m, s, Options{Engine: "tectorwise"})
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		if i == 0 {
			first = r.Result
		} else if !r.Result.Equal(first) {
			t.Errorf("spelling %d: %v != %v", i, r.Result, first)
		}
	}

	// HAVING with a hidden aggregate: filter on count(*) without
	// selecting it; ground truth from the flag histogram.
	counts := map[byte]int64{}
	for i := range d.Lineitem.ReturnFlag.Len() {
		f := d.Lineitem.ReturnFlag.At(i)
		counts[byte(f)]++
	}
	var wantRows, wantSum int64
	for f, c := range counts {
		if c > counts['R'] {
			wantRows++
			wantSum += sums[f]
		}
	}
	qh := fmt.Sprintf(
		"select sum(l_quantity) from lineitem group by l_returnflag having count(*) > %d", counts['R'])
	_, h, err := Run(d, m, qh, Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Result.Rows != wantRows || h.Result.Sum != wantSum {
		t.Errorf("hidden-aggregate HAVING: got %v, want rows=%d sum=%d", h.Result, wantRows, wantSum)
	}

	// Scalar HAVING: an impossible condition yields zero rows.
	_, z, err := Run(d, m, "select count(*) from nation having count(*) < 0", Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	if z.Result.Rows != 0 || z.Result.Sum != 0 {
		t.Errorf("failed scalar HAVING should return no rows, got %v", z.Result)
	}
}
