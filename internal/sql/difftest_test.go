package sql

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"olapmicro/internal/hw"
	"olapmicro/internal/tpch"
)

// The randomized differential tester: a seedable generator produces
// valid SELECTs over the whole catalog — filters, joins, grouping, and
// the ORDER BY/LIMIT/HAVING surface — and every query must return the
// identical Result on the compiled engine, the vectorized engine, and
// the morsel-driven parallel executor. A mismatch fails with the
// reproducing SQL text, the base seed and the query index.
//
// Set SQL_DIFFTEST_SEED to reproduce or explore a different corpus;
// SQL_DIFFTEST_N overrides the query count.

const (
	diffDefaultSeed = 20260731
	diffDefaultN    = 208 // >= 200 in CI; -short trims for the -race smoke
	diffShortN      = 40
)

// The differential database is deliberately tiny (SF 0.004, ~24k
// lineitem rows): the point is semantic agreement across executors,
// not profile realism, and three executions per query must stay fast.
var (
	diffOnce sync.Once
	diffData *tpch.Data
	diffMach *hw.Machine
)

func diffDB() (*tpch.Data, *hw.Machine) {
	diffOnce.Do(func() {
		diffData = tpch.Generate(0.004)
		diffMach = hw.Broadwell().Scaled(8)
	})
	return diffData, diffMach
}

// diffTable describes one catalog table to the generator: its numeric
// expression columns, its low-cardinality grouping columns, and its
// rough size rank (joins build the smaller side).
type diffTable struct {
	name     string
	numCols  []string // usable in expressions and predicates
	grpCols  []string // reasonable GROUP BY keys
	dateCols []string // compared against date literals
}

var diffTables = []diffTable{
	{
		name:     "lineitem",
		numCols:  []string{"l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate", "l_orderkey", "l_partkey", "l_suppkey"},
		grpCols:  []string{"l_returnflag", "l_linestatus", "l_quantity", "l_discount", "l_tax"},
		dateCols: []string{"l_shipdate", "l_commitdate", "l_receiptdate"},
	},
	{
		name:     "orders",
		numCols:  []string{"o_totalprice", "o_orderdate", "o_custkey", "o_orderkey"},
		grpCols:  []string{"o_shippriority", "o_custkey"},
		dateCols: []string{"o_orderdate"},
	},
	{
		name:    "partsupp",
		numCols: []string{"ps_availqty", "ps_supplycost", "ps_partkey", "ps_suppkey"},
		grpCols: []string{"ps_suppkey"},
	},
	{
		name:    "supplier",
		numCols: []string{"s_acctbal", "s_suppkey", "s_nationkey"},
		grpCols: []string{"s_nationkey"},
	},
	{
		name:    "customer",
		numCols: []string{"c_custkey", "c_nationkey", "c_mktsegment"},
		grpCols: []string{"c_nationkey", "c_mktsegment"},
	},
	{
		name:    "part",
		numCols: []string{"p_partkey", "p_retailprice"},
		grpCols: []string{},
	},
	{
		name:    "nation",
		numCols: []string{"n_nationkey", "n_regionkey"},
		grpCols: []string{"n_regionkey"},
	},
}

// diffJoin is one foreign-key edge the generator may follow.
type diffJoin struct {
	from, to       string
	fromCol, toCol string
}

var diffJoins = []diffJoin{
	{"lineitem", "orders", "l_orderkey", "o_orderkey"},
	{"lineitem", "supplier", "l_suppkey", "s_suppkey"},
	{"lineitem", "part", "l_partkey", "p_partkey"},
	{"lineitem", "partsupp", "l_partkey", "ps_partkey"},
	{"orders", "customer", "o_custkey", "c_custkey"},
	{"partsupp", "supplier", "ps_suppkey", "s_suppkey"},
	{"partsupp", "part", "ps_partkey", "p_partkey"},
	{"supplier", "nation", "s_nationkey", "n_nationkey"},
	{"customer", "nation", "c_nationkey", "n_nationkey"},
}

func diffTableByName(name string) diffTable {
	for _, t := range diffTables {
		if t.name == name {
			return t
		}
	}
	panic("unknown table " + name)
}

// sampleVal draws a real value of a column from the generated data, so
// comparison constants land inside the column's actual range and
// predicates have meaningful selectivities.
func sampleVal(d *tpch.Data, r *rand.Rand, col string) int64 {
	tm, cm, ok := tpch.SchemaColumn(col)
	if !ok {
		panic("unknown column " + col)
	}
	n := tm.Rows(d)
	i := r.Intn(n)
	return cm.Ints(d).At(i)
}

// diffQuery is one generated statement.
type diffQuery struct {
	sql string
}

// genQuery builds one random valid SELECT.
func genQuery(d *tpch.Data, r *rand.Rand) diffQuery {
	// FROM: weight the fact tables so joins and real scans dominate.
	drivers := []string{"lineitem", "lineitem", "lineitem", "orders", "orders", "partsupp", "supplier", "customer"}
	from := drivers[r.Intn(len(drivers))]
	inSet := map[string]bool{from: true}
	var joins []diffJoin
	for nj := r.Intn(3); nj > 0; nj-- {
		var cands []diffJoin
		for _, j := range diffJoins {
			if inSet[j.from] && !inSet[j.to] {
				cands = append(cands, j)
			}
		}
		if len(cands) == 0 {
			break
		}
		j := cands[r.Intn(len(cands))]
		joins = append(joins, j)
		inSet[j.to] = true
	}
	tables := make([]string, 0, len(inSet))
	for _, t := range diffTables {
		if inSet[t.name] {
			tables = append(tables, t.name)
		}
	}

	numCol := func() string {
		t := diffTableByName(tables[r.Intn(len(tables))])
		return t.numCols[r.Intn(len(t.numCols))]
	}

	// A random arithmetic expression over one or two numeric columns.
	expr := func() string {
		c := numCol()
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("%s + %s", c, numCol())
		case 1:
			return fmt.Sprintf("%s * %d", c, 1+r.Intn(9))
		case 2:
			return fmt.Sprintf("%s - %d", c, r.Intn(100))
		case 3:
			return fmt.Sprintf("(%s + %d) / %d", c, r.Intn(10), 1+r.Intn(7))
		default:
			return c
		}
	}

	// GROUP BY keys, drawn from the joined tables' grouping columns.
	var groupBy []string
	if r.Intn(2) == 0 {
		var pool []string
		for _, name := range tables {
			pool = append(pool, diffTableByName(name).grpCols...)
		}
		if len(pool) > 0 {
			for n := 1 + r.Intn(2); n > 0 && len(pool) > 0; n-- {
				i := r.Intn(len(pool))
				groupBy = append(groupBy, pool[i])
				pool = append(pool[:i], pool[i+1:]...)
			}
		}
	}

	// Aggregates (at least one; the planner requires it).
	fns := []string{"sum", "min", "max", "count"}
	var aggs []string
	for n := 1 + r.Intn(3); n > 0; n-- {
		fn := fns[r.Intn(len(fns))]
		if fn == "count" && r.Intn(2) == 0 {
			aggs = append(aggs, "count(*)")
			continue
		}
		aggs = append(aggs, fmt.Sprintf("%s(%s)", fn, expr()))
	}
	items := append([]string(nil), aggs...)
	// Sometimes also select a grouped column (display-only).
	if len(groupBy) > 0 && r.Intn(2) == 0 {
		items = append(items, groupBy[0])
	}

	var b strings.Builder
	fmt.Fprintf(&b, "select %s from %s", strings.Join(items, ", "), from)
	for _, j := range joins {
		fmt.Fprintf(&b, " join %s on %s = %s", j.to, j.fromCol, j.toCol)
	}

	// WHERE: 0-2 single-table conjuncts with sampled constants.
	cmps := []string{"<", "<=", ">", ">=", "=", "<>"}
	var conj []string
	for n := r.Intn(3); n > 0; n-- {
		c := numCol()
		if r.Intn(4) == 0 {
			lo := sampleVal(d, r, c)
			hi := sampleVal(d, r, c)
			if hi < lo {
				lo, hi = hi, lo
			}
			conj = append(conj, fmt.Sprintf("%s between %d and %d", c, lo, hi))
			continue
		}
		conj = append(conj, fmt.Sprintf("%s %s %d", c, cmps[r.Intn(len(cmps))], sampleVal(d, r, c)))
	}
	if len(conj) > 0 {
		fmt.Fprintf(&b, " where %s", strings.Join(conj, " and "))
	}

	if len(groupBy) > 0 {
		fmt.Fprintf(&b, " group by %s", strings.Join(groupBy, ", "))
	}

	// HAVING over a selected or fresh aggregate (grouped queries, and
	// occasionally a scalar query too — legal SQL either way).
	if (len(groupBy) > 0 && r.Intn(5) < 2) || (len(groupBy) == 0 && r.Intn(8) == 0) {
		agg := aggs[r.Intn(len(aggs))]
		if r.Intn(3) == 0 {
			agg = fmt.Sprintf("%s(%s)", fns[r.Intn(3)], numCol()) // maybe hidden
		}
		fmt.Fprintf(&b, " having %s %s %d", agg, cmps[r.Intn(4)], int64(r.Intn(100000)))
	}

	// ORDER BY aggregates (by call or position) and group keys.
	ordered := r.Intn(2) == 0
	if ordered {
		var keys []string
		for n := 1 + r.Intn(2); n > 0; n-- {
			var k string
			switch {
			case r.Intn(3) == 0:
				k = strconv.Itoa(1 + r.Intn(len(aggs))) // positional
			case len(groupBy) > 0 && r.Intn(2) == 0:
				k = groupBy[r.Intn(len(groupBy))]
			default:
				k = aggs[r.Intn(len(aggs))]
			}
			if r.Intn(2) == 0 {
				k += " desc"
			}
			keys = append(keys, k)
		}
		fmt.Fprintf(&b, " order by %s", strings.Join(keys, ", "))
	}
	if (ordered && r.Intn(2) == 0) || r.Intn(4) == 0 {
		fmt.Fprintf(&b, " limit %d", 1+r.Intn(20))
	}
	return diffQuery{sql: b.String()}
}

// diffSeedN resolves the corpus seed and size: the defaults (trimmed
// under -short), overridden by SQL_DIFFTEST_SEED / SQL_DIFFTEST_N.
// The concurrency-mode tester uses the same resolution, so one
// environment override steers both suites to one corpus.
func diffSeedN(t *testing.T) (int64, int) {
	t.Helper()
	seed := int64(diffDefaultSeed)
	if s := os.Getenv("SQL_DIFFTEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SQL_DIFFTEST_SEED %q: %v", s, err)
		}
		seed = v
	}
	n := diffDefaultN
	if testing.Short() {
		n = diffShortN
	}
	if s := os.Getenv("SQL_DIFFTEST_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad SQL_DIFFTEST_N %q: %v", s, err)
		}
		n = v
	}
	return seed, n
}

// TestDifferentialRandomQueries is the randomized cross-engine,
// cross-executor differential suite.
func TestDifferentialRandomQueries(t *testing.T) {
	d, m := diffDB()
	seed, n := diffSeedN(t)

	for i := 0; i < n; i++ {
		// Each query draws from its own stream, so query i reproduces
		// from (seed, i) no matter how many queries ran before it.
		r := rand.New(rand.NewSource(seed + int64(i)))
		q := genQuery(d, r)
		fail := func(format string, args ...any) {
			t.Fatalf("seed %d query %d:\n  %s\n  %s", seed, i, q.sql, fmt.Sprintf(format, args...))
		}

		cty, ty, err := Run(d, m, q.sql, Options{Engine: "typer"})
		if err != nil {
			fail("typer: %v", err)
		}
		ctw, tw, err := Run(d, m, q.sql, Options{Engine: "tectorwise"})
		if err != nil {
			fail("tectorwise: %v", err)
		}
		if !ty.Result.Equal(tw.Result) {
			fail("engines disagree: typer %v != tectorwise %v", ty.Result, tw.Result)
		}
		// Parallel(4), alternating the engine per query.
		parEng := "typer"
		if i%2 == 1 {
			parEng = "tectorwise"
		}
		cpar, par, err := Run(d, m, q.sql, Options{Engine: parEng, Threads: 4})
		if err != nil {
			fail("parallel(4) on %s: %v", parEng, err)
		}
		if !par.Result.Equal(ty.Result) {
			fail("parallel(4) on %s disagrees: %v != serial %v", parEng, par.Result, ty.Result)
		}

		// Fast mode must be bit-identical to the measured runs it
		// mirrors — serial on both engines, parallel on the alternate —
		// with no probes attached at all.
		if r, err := cty.ExecuteFast(1); err != nil {
			fail("typer fast(1): %v", err)
		} else if !r.Equal(ty.Result) {
			fail("typer fast(1) disagrees: %v != measured %v", r, ty.Result)
		}
		if r, err := ctw.ExecuteFast(1); err != nil {
			fail("tectorwise fast(1): %v", err)
		} else if !r.Equal(tw.Result) {
			fail("tectorwise fast(1) disagrees: %v != measured %v", r, tw.Result)
		}
		if r, err := cpar.ExecuteFast(4); err != nil {
			fail("%s fast(4): %v", parEng, err)
		} else if !r.Equal(par.Result) {
			fail("%s fast(4) disagrees: %v != measured %v", parEng, r, par.Result)
		}

		// Prepared round-trip: auto-parameterize, compile the template,
		// bind the extracted arguments, and the measured execution must
		// be bit-identical — result AND profile — to the literal
		// compile, alternating the engine with the query index.
		if tmpl, args, ok := Parameterize(q.sql); ok {
			ref := ty
			if parEng == "tectorwise" {
				ref = tw
			}
			ct, err := Compile(d, m, tmpl, Options{Engine: parEng})
			if err != nil {
				fail("template %q: %v", tmpl, err)
			}
			bound, err := ct.Bind(args)
			if err != nil {
				fail("bind %v onto %q: %v", args, tmpl, err)
			}
			ab, err := bound.Execute()
			if err != nil {
				fail("prepared execution on %s: %v", parEng, err)
			}
			if !ab.Result.Equal(ref.Result) {
				fail("prepared execution disagrees: %v != literal %v", ab.Result, ref.Result)
			}
			if !reflect.DeepEqual(ab.Profile, ref.Profile) {
				fail("prepared execution's measured profile differs from the literal compile's:\nprepared: %+v\nliteral:  %+v", ab.Profile, ref.Profile)
			}
			if !reflect.DeepEqual(ab.Inputs, ref.Inputs) {
				fail("prepared execution's raw counters differ from the literal compile's")
			}
		}
	}
}
