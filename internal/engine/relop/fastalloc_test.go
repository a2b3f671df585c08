package relop_test

import (
	"testing"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

// TestFastExecuteAllocs pins the allocations of one pooled Execute per
// fast_scan and fast_frame kernel shape at SF 0.01, at one and two
// threads, as ceilings: a change may lower them, never raise them.
// Workers come from the plan's pool after its first execution, so what
// remains is the per-execution frame: morsels, the worker slice, the
// partials and the finalized result.
func TestFastExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	d := tpch.Generate(0.01)
	for _, tc := range []struct {
		name, sql string
		ceiling   [2]float64 // at 1 and 2 threads
	}{
		{"q1_fused", "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
			"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus", [2]float64{29, 34}},
		{"q6", "select sum(l_extendedprice * l_discount / 100) from lineitem " +
			"where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' " +
			"and l_discount between 5 and 7 and l_quantity < 24", [2]float64{8, 15}},
		{"p_nation_group", "select n_regionkey, count(*) from nation where n_nationkey >= 3 group by n_regionkey",
			[2]float64{24, 24}},
		{"hashgrp_topk", "select l_suppkey, sum(l_quantity) from lineitem group by l_suppkey order by 2 desc limit 10",
			[2]float64{41, 46}},
	} {
		stmt, err := sql.Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pl, err := sql.BuildPipeline(d, stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p, err := relop.CompileFast(pl, relop.BindData(pl, d))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, threads := range []int{1, 2} {
			run := func() { p.Execute(threads) }
			run() // the first execution builds workers; the pool keeps them from the second on
			run()
			if got := testing.AllocsPerRun(50, run); got > tc.ceiling[i] {
				t.Errorf("%s: %.0f allocations per Execute(%d), ceiling %.0f", tc.name, got, threads, tc.ceiling[i])
			} else {
				t.Logf("%s: %.0f allocations per Execute(%d) (ceiling %.0f)", tc.name, got, threads, tc.ceiling[i])
			}
		}
	}
}
