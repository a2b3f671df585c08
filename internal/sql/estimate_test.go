package sql

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/tpch"
)

// refEstimate is the planner's estimate as it was before the filter's
// sample went through the fast kernels: every sampled row tested by
// Pred.Eval. TestEstimateMatchesReference compares estimate with it.
func refEstimate(pl *relop.Pipeline, d *tpch.Data) {
	pl.EstSel = 1
	pb := relop.BindData(pl, d)
	n := pl.Tables[0].Rows
	if n == 0 {
		return
	}
	stride := n / estimateSamples
	if stride < 1 {
		stride = 1
	}
	rows := make([]int, len(pl.Tables))
	if pl.Filter != nil {
		sampled, passed := 0, 0
		for i := 0; i < n; i += stride {
			rows[0] = i
			sampled++
			if pl.Filter.Eval(pb, rows) {
				passed++
			}
		}
		pl.EstSel = float64(passed) / float64(sampled)
	}
	if len(pl.GroupBy) == 0 {
		return
	}
	driverOnly := true
	refTables := map[int]bool{}
	for _, g := range pl.GroupBy {
		g.Tables(refTables)
	}
	for t := range refTables {
		if t != 0 {
			driverOnly = false
		}
	}
	if !driverOnly {
		// Grouping by a joined dimension: the group count is bounded by
		// the referenced build sides' cardinalities (and by the probe
		// stream, for mixed keys).
		est := 64
		for _, t := range sortedTables(refTables) {
			if t != 0 && pl.Tables[t].Rows > est {
				est = pl.Tables[t].Rows
			}
		}
		if est > n {
			est = n
		}
		pl.EstGroups = est
		return
	}
	keys := map[int64]bool{}
	keyVals := make([]int64, len(pl.GroupBy))
	sampled := 0
	for i := 0; i < n; i += stride {
		rows[0] = i
		for gi, g := range pl.GroupBy {
			keyVals[gi] = g.Eval(pb, rows)
		}
		keys[relop.GroupKey(keyVals)] = true
		sampled++
	}
	if len(keys) < sampled/2 {
		// Low cardinality: the sample saw (nearly) every group.
		pl.EstGroups = len(keys)*2 + 8
	} else {
		// High cardinality: the sample saturated; size like a group-by
		// operator working from a fraction-of-input estimate.
		pl.EstGroups = n/4 + 1
	}
}

// adhocSQL draws one statement of each of the benchmark's four
// adhoc_compile templates, with literals scaled to d.
func adhocSQL(d *tpch.Data, r *rand.Rand) []string {
	month := func(k int) string {
		return time.Date(1992+k/12, time.Month(1+k%12), 1, 0, 0, 0, 0, time.UTC).Format("2006-01-02")
	}
	keys := func(n int) (int, int) {
		lo := 1 + r.Intn(n)
		return lo, lo + n/64 + r.Intn(n/4-n/64+1)
	}
	a, b := r.Intn(68), r.Intn(68)
	clo, chi := keys(d.Customer.CustKey.Len())
	plo, phi := keys(d.Part.PartKey.Len())
	disc := r.Intn(9)
	return []string{
		fmt.Sprintf("select sum(o_totalprice) from orders where o_orderdate >= date '%s' and o_orderdate < date '%s'", month(a), month(a+1+r.Intn(12))),
		fmt.Sprintf("select count(*) from customer where c_custkey >= %d and c_custkey < %d", clo, chi),
		fmt.Sprintf("select sum(p_retailprice) from part where p_partkey >= %d and p_partkey < %d", plo, phi),
		fmt.Sprintf("select sum(l_extendedprice * l_discount / 100) from lineitem "+
			"where l_shipdate >= date '%s' and l_shipdate < date '%s' and l_discount between %d and %d and l_quantity < %d",
			month(b), month(b+3+r.Intn(10)), disc, disc+2, 10+r.Intn(41)),
	}
}

// TestEstimateMatchesReference plans the differential corpus and 64
// draws of each adhoc_compile template and checks that estimate's
// EstSel and EstGroups equal refEstimate's on the same pipeline.
func TestEstimateMatchesReference(t *testing.T) {
	check := func(d *tpch.Data, sql string) {
		t.Helper()
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		pl, err := BuildPipeline(d, stmt)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		ref := *pl
		refEstimate(&ref, d)
		if pl.EstSel != ref.EstSel || pl.EstGroups != ref.EstGroups {
			t.Errorf("%s: EstSel %v EstGroups %d, per-row reference %v %d", sql, pl.EstSel, pl.EstGroups, ref.EstSel, ref.EstGroups)
		}
	}
	d, _ := diffDB()
	seed, n := diffSeedN(t)
	for i := range n {
		check(d, genQuery(d, rand.New(rand.NewSource(seed+int64(i)))).sql)
	}
	d, _ = cv(t)
	r := rand.New(rand.NewSource(1))
	for range 64 {
		for _, sql := range adhocSQL(d, r) {
			check(d, sql)
		}
	}
}

// BenchmarkEstimate times the planner's estimate of one statement per
// adhoc_compile template at SF 0.25, the scale the benchmark serves.
func BenchmarkEstimate(b *testing.B) {
	d := tpch.Generate(0.25)
	names := []string{"ord_range", "cust_range", "part_range", "li_q6"}
	for i, sql := range adhocSQL(d, rand.New(rand.NewSource(1))) {
		stmt, err := Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := BuildPipeline(d, stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(names[i], func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				estimate(pl, d)
			}
		})
	}
}
