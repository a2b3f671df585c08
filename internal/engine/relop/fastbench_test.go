package relop_test

import (
	"sync"
	"testing"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

var (
	shapeOnce sync.Once
	shapeData *tpch.Data
)

// BenchmarkFastShape times one single-threaded execution of each
// fast_scan statement, of one fixed literal of two adhoc_compile range
// templates, and of two selective direct-coded groupings (a one-month
// l_shipdate window, and a range on the 4-byte l_extendedprice) at
// SF 0.25 and reports it per row of the scanned table:
//
//	go test -run '^$' -bench FastShape -count 7 ./internal/engine/relop
func BenchmarkFastShape(b *testing.B) {
	benchFast(b, []benchStmt{
		{"q6", "select sum(l_extendedprice * l_discount / 100) from lineitem " +
			"where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' " +
			"and l_discount between 5 and 7 and l_quantity < 24"},
		{"q1_fused", "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
			"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus"},
		{"q1_expr", "select l_returnflag, l_linestatus, sum(l_extendedprice * (100 - l_discount) / 100), count(*) " +
			"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus"},
		{"q1_sel", "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
			"from lineitem where l_shipdate >= date '1995-06-01' and l_shipdate < date '1995-07-01' " +
			"group by l_returnflag, l_linestatus"},
		{"q1_price_sel", "select l_returnflag, l_linestatus, sum(l_quantity), count(*) " +
			"from lineitem where l_extendedprice < 250000 group by l_returnflag, l_linestatus"},
		{"minmax", "select min(l_extendedprice), max(l_extendedprice), min(l_shipdate), max(l_shipdate) from lineitem"},
		{"hashgrp_topk", "select l_suppkey, sum(l_quantity) from lineitem group by l_suppkey order by 2 desc limit 10"},
		{"adhoc_li_q6", "select sum(l_extendedprice * l_discount / 100) from lineitem " +
			"where l_shipdate >= date '1995-03-01' and l_shipdate < date '1995-09-01' " +
			"and l_discount between 3 and 5 and l_quantity < 30"},
		{"adhoc_ord_range", "select sum(o_totalprice) from orders " +
			"where o_orderdate >= date '1994-06-01' and o_orderdate < date '1994-12-01'"},
	})
}

// BenchmarkFastJoin times one single-threaded execution of each
// fast_join statement at SF 0.25 and reports it per row of the driver
// table (lineitem for join2 and q3, orders for join_oc):
//
//	go test -run '^$' -bench FastJoin -count 7 ./internal/engine/relop
func BenchmarkFastJoin(b *testing.B) {
	benchFast(b, []benchStmt{
		{"join2", "select count(*), sum(o_totalprice) from lineitem join orders on l_orderkey = o_orderkey " +
			"where l_shipdate > date '1995-03-15' and o_orderdate < date '1995-03-15'"},
		{"join_oc", "select c_nationkey, count(*), sum(o_totalprice) from orders join customer on o_custkey = c_custkey " +
			"where c_mktsegment = 1 group by c_nationkey"},
		{"q3", "select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue, o_orderdate, o_shippriority " +
			"from lineitem join orders on l_orderkey = o_orderkey join customer on o_custkey = c_custkey " +
			"where c_mktsegment = 1 and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' " +
			"group by l_orderkey, o_orderdate, o_shippriority order by revenue desc, o_orderdate limit 10"},
	})
}

// benchStmt is one timed statement: its sub-benchmark name and text.
type benchStmt struct{ name, sql string }

// benchFast compiles each statement over the shared SF 0.25 data and
// times its single-threaded pooled execution, in ns per driver row.
func benchFast(b *testing.B, stmts []benchStmt) {
	shapeOnce.Do(func() { shapeData = tpch.Generate(0.25) })
	for _, sh := range stmts {
		stmt, err := sql.Parse(sh.sql)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := sql.BuildPipeline(shapeData, stmt)
		if err != nil {
			b.Fatal(err)
		}
		p, err := relop.CompileFast(pl, relop.BindData(pl, shapeData))
		if err != nil {
			b.Fatal(err)
		}
		p.Execute(1) // the second execution on is pooled
		b.Run(sh.name, func(b *testing.B) {
			for b.Loop() {
				p.Execute(1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pl.Tables[0].Rows), "ns/row")
		})
	}
}
