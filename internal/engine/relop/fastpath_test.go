package relop_test

import (
	"fmt"
	"math"
	"testing"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

// TestFastGroupPathSelection pins which grouping each shape compiles
// to, so no change drops a shape to the hash path unnoticed: the fast
// benchmark statements over generated data, then hand-built key
// domains at the code-space cap and one past it. It pins the fast_join
// statements' join indexes too: every build side is keyed on a unique
// key, so every probe is one load from a unique direct index.
func TestFastGroupPathSelection(t *testing.T) {
	d := tpch.Generate(0.05) // 500 suppliers: l_suppkey spans past the lane threshold
	joinForms := map[string]string{"join2": "[unique]", "join_oc": "[unique]", "q3": "[unique unique]"}
	for _, tc := range []struct{ name, sql, want string }{
		{"q1_fused", "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
			"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus",
			"direct/discard/180 codes/4 lanes"},
		{"q1_expr", "select l_returnflag, l_linestatus, sum(l_extendedprice * (100 - l_discount) / 100), count(*) " +
			"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus",
			"direct/discard/180 codes/4 lanes"},
		{"q1_sel", "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
			"from lineitem where l_shipdate >= date '1995-06-01' and l_shipdate < date '1995-07-01' " +
			"group by l_returnflag, l_linestatus", "direct/discard/180 codes/4 lanes"},
		{"q1_price_sel", "select l_returnflag, l_linestatus, sum(l_quantity), count(*) " +
			"from lineitem where l_extendedprice < 250000 group by l_returnflag, l_linestatus",
			"direct/discard/180 codes/4 lanes"},
		{"q1 with min and a computed conjunct", "select l_returnflag, min(l_quantity) from lineitem " +
			"where l_quantity + l_discount < 30 group by l_returnflag",
			"direct/selection/18 codes/4 lanes"},
		{"hashgrp_topk", "select l_suppkey, sum(l_quantity) from lineitem group by l_suppkey order by 2 desc limit 10",
			"direct/discard/500 codes/1 lanes"},
		{"nation_group", "select n_regionkey, count(*) from nation group by n_regionkey",
			"direct/discard/5 codes/4 lanes"},
		{"p_nation_group", "select n_regionkey, count(*) from nation where n_nationkey >= 3 group by n_regionkey",
			"direct/discard/5 codes/4 lanes"},
		{"driver key beside a join", "select l_returnflag, count(*) from lineitem join orders on l_orderkey = o_orderkey " +
			"where o_orderdate < date '1995-03-15' group by l_returnflag", "direct/selection/18 codes/4 lanes"},
		{"join2", "select count(*), sum(o_totalprice) from lineitem join orders on l_orderkey = o_orderkey " +
			"where l_shipdate > date '1995-03-15' and o_orderdate < date '1995-03-15'", "ungrouped"},
		{"join_oc", "select c_nationkey, count(*), sum(o_totalprice) from orders join customer on o_custkey = c_custkey " +
			"where c_mktsegment = 1 group by c_nationkey", "direct/selection/25 codes/4 lanes"},
		{"joined key too wide to code", "select o_totalprice, count(*) from lineitem join orders on l_orderkey = o_orderkey " +
			"group by o_totalprice", "hashed"},
		{"q3", "select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue, o_orderdate, o_shippriority " +
			"from lineitem join orders on l_orderkey = o_orderkey join customer on o_custkey = c_custkey " +
			"where c_mktsegment = 1 and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' " +
			"group by l_orderkey, o_orderdate, o_shippriority order by revenue desc, o_orderdate limit 10", "hashed"},
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
		if got := p.GroupPath(); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
		if want, ok := joinForms[tc.name]; ok && fmt.Sprint(p.JoinForms()) != want {
			t.Errorf("%s: join indexes %v, want %s", tc.name, p.JoinForms(), want)
		}
	}

	// Key spans whose product is 2^16 − 1 leave one code for discard;
	// 2^16 does not, and the plan hashes.
	for _, tc := range []struct {
		spanA, spanB int64
		want         string
	}{
		{255, 257, "direct/discard/65535 codes/1 lanes"},
		{256, 256, "hashed"},
		{math.MaxInt64, 1, "hashed"},
	} {
		lo := int64(math.MinInt64)
		a := []int64{lo, lo + tc.spanA - 1}
		b := []int64{-1 << 62, -1<<62 + tc.spanB - 1}
		pl := &relop.Pipeline{
			Tables: []relop.TableRef{{Name: "t", Rows: 2, Cols: []relop.ColSpec{
				{Name: "a", Kind: relop.I64}, {Name: "b", Kind: relop.I64}}}},
			GroupBy: []*relop.Expr{relop.ColExpr(0, 0), relop.ColExpr(0, 1)},
			Aggs:    []relop.Agg{{Kind: relop.AggCount}},
		}
		bound := &relop.Bound{Tables: [][]relop.Col{{
			{Kind: relop.I64, V: relop.IntsOf(a)}, {Kind: relop.I64, V: relop.IntsOf(b)}}}}
		p, err := relop.CompileFast(pl, bound)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.GroupPath(); got != tc.want {
			t.Errorf("spans %d×%d: %s, want %s", tc.spanA, tc.spanB, got, tc.want)
		}
	}
}
