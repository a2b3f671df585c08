package sql

import (
	"strings"
	"sync"
	"testing"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/tectorwise"
	"olapmicro/internal/engine/typer"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/tpch"
)

// The cross-validation suite shares one small database and the scaled
// quick machine, mirroring the harness test protocol.
var (
	cvOnce sync.Once
	cvData *tpch.Data
	cvMach *hw.Machine
)

func cv(t *testing.T) (*tpch.Data, *hw.Machine) {
	t.Helper()
	cvOnce.Do(func() {
		cvData = tpch.Generate(0.1)
		cvMach = hw.Broadwell().Scaled(8)
	})
	return cvData, cvMach
}

// The paper queries as SQL text (values are integer fixed-point:
// cents, hundredths, epoch days).
const (
	q6SQL = `select sum(l_extendedprice * l_discount / 100) from lineitem
where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
and l_discount between 5 and 7 and l_quantity < 24`

	q1SQL = `select sum(l_quantity), sum(l_extendedprice),
sum(l_extendedprice * (100 - l_discount) / 100),
sum(l_extendedprice * (100 - l_discount) / 100 * (100 + l_tax) / 100),
count(*)
from lineitem where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus`

	joinSmallSQL = `select sum(s_acctbal + s_suppkey) from supplier
join nation on s_nationkey = n_nationkey`
)

// hardcoded runs one of the paper's hardcoded implementations.
func hardcoded(d *tpch.Data, m *hw.Machine, engName, query string) engine.Result {
	as := probe.NewAddrSpace()
	p := probe.New(m, mem.AllPrefetchers())
	if engName == "typer" {
		e := typer.New(d, as)
		switch query {
		case "q1":
			return e.Q1(p, as)
		case "q6":
			return e.Q6(p, false)
		default:
			return e.Join(p, as, engine.JoinSmall)
		}
	}
	e := tectorwise.New(d, as, m.L1D.SizeBytes, m.SIMDLanes64)
	switch query {
	case "q1":
		return e.Q1(p, as)
	case "q6":
		return e.Q6(p, false)
	default:
		return e.Join(p, as, engine.JoinSmall)
	}
}

func TestSQLPlannedMatchesHardcoded(t *testing.T) {
	d, m := cv(t)
	cases := []struct {
		name  string
		sql   string
		query string
	}{
		{"Q6", q6SQL, "q6"},
		{"Q1", q1SQL, "q1"},
		{"small join", joinSmallSQL, "join"},
	}
	for _, tc := range cases {
		for _, engName := range []string{"typer", "tectorwise"} {
			c, a, err := Run(d, m, tc.sql, Options{Engine: engName})
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, engName, err)
			}
			want := hardcoded(d, m, engName, tc.query)
			if !a.Result.Equal(want) {
				t.Errorf("%s on %s: SQL-planned %v != hardcoded %v\nplan:\n%s",
					tc.name, engName, a.Result, want, c.Pipeline)
			}
		}
	}
}

func TestAutoEngineChoiceIsHighPerformance(t *testing.T) {
	d, m := cv(t)
	c, a, err := Run(d, m, q6SQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine != "Typer" && c.Engine != "Tectorwise" {
		t.Fatalf("auto mode chose %q; the commercial engines are estimate-only", c.Engine)
	}
	if a == nil || a.Result.Rows != 1 {
		t.Fatalf("expected a scalar answer, got %+v", a)
	}
	// The cost model must rank the interpreted row store far behind
	// the high-performance engines (the paper's two-orders-of-magnitude
	// projection gap).
	var rowMs, chosenMs float64
	for _, p := range c.Predictions {
		switch p.System {
		case "DBMS R":
			rowMs = p.Profile.Milliseconds()
		case c.Engine:
			chosenMs = p.Profile.Milliseconds()
		}
	}
	if rowMs < 5*chosenMs {
		t.Errorf("cost model ranks DBMS R at %.2f ms vs chosen %.2f ms; expected a wide gap", rowMs, chosenMs)
	}
}

func TestExplainShowsPlanAndBreakdown(t *testing.T) {
	d, m := cv(t)
	c, a, err := Run(d, m, "explain "+q6SQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != nil {
		t.Fatal("EXPLAIN must not execute")
	}
	out := c.Explain()
	for _, want := range []string{"scan lineitem", "filter [", "<- chosen", "dcache", "DBMS R", "Tectorwise"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
}

func TestSQLProfileReportsEvents(t *testing.T) {
	d, m := cv(t)
	_, a, err := Run(d, m, q6SQL, Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Profile.Instructions == 0 || a.Profile.Seconds <= 0 {
		t.Fatalf("SQL run reported no micro-architectural activity: %+v", a.Profile)
	}
	if a.Profile.Breakdown.Total <= 0 {
		t.Fatal("empty cycle breakdown")
	}
	// Q6 through the compiled engine must profile like a selective
	// scan: stall-dominated with Dcache the leading category, exactly
	// like the hardcoded twin (Section 6).
	_, dc, _, _, _ := a.Profile.Breakdown.StallShares()
	if dc < 0.3 {
		t.Errorf("SQL Q6 on Typer: Dcache share %.0f%%, expected the scan-like profile", 100*dc)
	}
}

// A 1:N join (every part has 4 partsupp rows) must produce every
// duplicate-chain match, not just the first.
func TestDuplicateKeyJoinFollowsChains(t *testing.T) {
	d, m := cv(t)
	// Ground truth by brute force.
	perPart := map[int64]int64{}
	for i := range d.PartSupp.PartKey.Len() {
		pk := d.PartSupp.PartKey.At(i)
		perPart[pk]++
	}
	var wantCount, wantQty int64
	for i := range d.Lineitem.PartKey.Len() {
		pk := d.Lineitem.PartKey.At(i)
		wantCount += perPart[pk]
		wantQty += d.Lineitem.Quantity.At(i) * perPart[pk]
	}
	q := "select count(*), sum(l_quantity) from lineitem join partsupp on l_partkey = ps_partkey"
	for _, engName := range []string{"typer", "tectorwise"} {
		_, a, err := Run(d, m, q, Options{Engine: engName})
		if err != nil {
			t.Fatalf("%s: %v", engName, err)
		}
		if a.Result.Sum != wantCount {
			t.Errorf("%s: 1:N join count(*) = %d, want %d", engName, a.Result.Sum, wantCount)
		}
	}
	// The quantity sum over all matches must also agree.
	q2 := "select sum(l_quantity) from lineitem join partsupp on l_partkey = ps_partkey"
	_, a, err := Run(d, m, q2, Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Sum != wantQty {
		t.Errorf("1:N join sum = %d, want %d", a.Result.Sum, wantQty)
	}
}

// Grouping by a joined dimension must produce one group per distinct
// key on both engines, with the estimated aggregate region handling
// the real cardinality.
func TestJoinDimensionGroupBy(t *testing.T) {
	d, m := cv(t)
	distinct := map[int64]bool{}
	for i := range d.Orders.CustKey.Len() {
		ck := d.Orders.CustKey.At(i)
		distinct[ck] = true
	}
	q := "select sum(l_quantity), count(*) from lineitem join orders on l_orderkey = o_orderkey group by o_custkey"
	var first *Answer
	for _, engName := range []string{"typer", "tectorwise"} {
		_, a, err := Run(d, m, q, Options{Engine: engName})
		if err != nil {
			t.Fatalf("%s: %v", engName, err)
		}
		if a.Result.Rows != int64(len(distinct)) {
			t.Errorf("%s: %d groups, want %d distinct custkeys", engName, a.Result.Rows, len(distinct))
		}
		if first == nil {
			first = a
		} else if !a.Result.Equal(first.Result) {
			t.Errorf("engines disagree: %v vs %v", a.Result, first.Result)
		}
	}
}
