package relop

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// joinSchema is the synthetic schema the join tests draw tables from.
type joinSchema map[string]struct {
	ref  TableRef
	cols []Col
}

// newJoinSchema generates, by table (columns in index order):
//
//	l   3000-row driver: lk in [-20, 420) (some miss o), lp in [0, 60)
//	    (some miss ps), lq in [-50, 50], lf a 3-valued byte
//	o   400 rows: ok = 0..399 (dense: the direct index), oc in [0, 70)
//	    (some miss c), od in [0, 1000), op a 5-valued byte
//	ps  200 rows: pk = i mod 50 (every key four times: 1:N), pc
//	c   60 rows: ck = 0..59, cs a 4-valued byte
//	e   no rows: ek
//	s   300 rows: sk = i³ (sparse: the hashed index), sv
//	h   2000 rows: hk = 7 for every row (one run longer than a chunk), hv
func newJoinSchema() joinSchema {
	rng := rand.New(rand.NewSource(5))
	ints := func(n int, f func(i int) int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	flags := func(n, k int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(rng.Intn(k))
		}
		return v
	}
	uniform := func(lo, hi int64) func(int) int64 {
		return func(int) int64 { return lo + rng.Int63n(hi-lo) }
	}
	s := joinSchema{}
	add := func(name string, rows int, cols ...fastCol) {
		ref, bound := tableFixture(name, rows, cols...)
		s[name] = struct {
			ref  TableRef
			cols []Col
		}{ref, bound}
	}
	add("l", 3000,
		fastCol{name: "lk", i64: ints(3000, uniform(-20, 420))},
		fastCol{name: "lp", i64: ints(3000, uniform(0, 60))},
		fastCol{name: "lq", i64: ints(3000, uniform(-50, 51))},
		fastCol{name: "lf", i8: flags(3000, 3)})
	add("o", 400,
		fastCol{name: "ok", i64: ints(400, func(i int) int64 { return int64(i) })},
		fastCol{name: "oc", i64: ints(400, uniform(0, 70))},
		fastCol{name: "od", i64: ints(400, uniform(0, 1000))},
		fastCol{name: "op", i8: flags(400, 5)})
	add("ps", 200,
		fastCol{name: "pk", i64: ints(200, func(i int) int64 { return int64(i % 50) })},
		fastCol{name: "pc", i64: ints(200, uniform(0, 1000))})
	add("c", 60,
		fastCol{name: "ck", i64: ints(60, func(i int) int64 { return int64(i) })},
		fastCol{name: "cs", i8: flags(60, 4)})
	add("e", 0, fastCol{name: "ek", i64: []int64{}})
	add("s", 300,
		fastCol{name: "sk", i64: ints(300, func(i int) int64 { return int64(i * i * i) })},
		fastCol{name: "sv", i64: ints(300, uniform(0, 1000))})
	add("h", 2000,
		fastCol{name: "hk", i64: ints(2000, func(int) int64 { return 7 })},
		fastCol{name: "hv", i64: ints(2000, func(i int) int64 { return int64(i) })})
	return s
}

// input assembles the pipeline tables and their bindings, in order.
func (s joinSchema) input(names ...string) ([]TableRef, *Bound) {
	var refs []TableRef
	b := &Bound{}
	for _, n := range names {
		refs = append(refs, s[n].ref)
		b.Tables = append(b.Tables, s[n].cols)
	}
	return refs, b
}

// q3Shape is a three-way chain whose second probe key reads the first
// build table: lineitem ⋈ orders ⋈ customer, both builds filtered,
// grouped on a driver key and two build columns, top 10 by revenue.
func q3Shape() *Pipeline {
	col := ColExpr
	return &Pipeline{
		Filter: cmp(Gt, 2, -10),
		Joins: []Join{
			{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0),
				BuildFilter: &Pred{Op: PredCmp, Cmp: Lt, A: col(1, 2), B: ConstExpr(600)}},
			{Build: 2, BuildKey: col(2, 0), ProbeKey: col(1, 1),
				BuildFilter: &Pred{Op: PredCmp, Cmp: Eq, A: col(2, 1), B: ConstExpr(1)}},
		},
		GroupBy: []*Expr{col(0, 0), col(1, 2), col(1, 3)},
		Aggs: []Agg{{Kind: AggSum, Arg: Bin(OpDiv,
			Bin(OpMul, col(0, 2), Bin(OpSub, ConstExpr(100), col(0, 2))), ConstExpr(100))}},
		OrderBy: []OrderKey{{Col: OutCol{Idx: 0}, Desc: true}, {Col: OutCol{Key: true, Idx: 1}}},
		Limit:   10,
	}
}

// TestFastPlanJoinsMatchNaive runs every join shape the fast plan's
// join stage must get right against the nested-loop reference, at
// thread counts that do and do not divide the driver, then once more on
// pooled workers.
func TestFastPlanJoinsMatchNaive(t *testing.T) {
	schema := newJoinSchema()
	col := ColExpr
	cases := []struct {
		name   string
		tables []string
		form   string // join 0's index form (joinIndex.form), where the case pins it
		pl     *Pipeline
	}{
		{name: "1:N build side", tables: []string{"l", "ps"}, form: "direct", pl: &Pipeline{
			Joins: []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 1)}},
			Aggs:  []Agg{{Kind: AggCount}, {Kind: AggSum, Arg: col(1, 1)}, {Kind: AggSum, Arg: col(0, 2)}},
		}},
		{name: "empty build table", tables: []string{"l", "e"}, pl: &Pipeline{
			Joins: []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0)}},
			Aggs:  []Agg{{Kind: AggCount}, {Kind: AggSum, Arg: col(0, 2)}},
		}},
		{name: "build filter clamps to never-match", tables: []string{"l", "o"}, pl: &Pipeline{
			Filter: cmp(Lt, 2, 0),
			Joins: []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0),
				BuildFilter: &Pred{Op: PredCmp, Cmp: Gt, A: col(1, 2), B: ConstExpr(5000)}}},
			GroupBy: []*Expr{col(0, 3)},
			Aggs:    []Agg{{Kind: AggCount}},
		}},
		{name: "three-way chain probes through the first build (q3 shape)", tables: []string{"l", "o", "c"}, pl: q3Shape()},
		{name: "computed probe key on a sparse hashed build", tables: []string{"l", "s"}, form: "hashed", pl: &Pipeline{
			Joins: []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: Bin(OpMul, Bin(OpMul, col(0, 0), col(0, 0)), col(0, 0))}},
			Aggs:  []Agg{{Kind: AggCount}, {Kind: AggSum, Arg: col(1, 1)}, {Kind: AggMax, Arg: col(0, 2)}},
		}},
		{name: "grouping and aggregates over build columns", tables: []string{"l", "o"}, form: "unique", pl: &Pipeline{
			Joins:   []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0)}},
			GroupBy: []*Expr{col(1, 3)},
			Aggs: []Agg{{Kind: AggMin, Arg: col(1, 2)}, {Kind: AggMax, Arg: col(1, 2)},
				{Kind: AggSum, Arg: Bin(OpSub, col(1, 2), col(0, 2))}, {Kind: AggCount}},
		}},
		{name: "dense driver keys beside a build aggregate", tables: []string{"l", "o"}, pl: &Pipeline{
			Filter:  cmp(Ge, 2, -30),
			Joins:   []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0)}},
			GroupBy: []*Expr{col(0, 3)},
			Aggs:    []Agg{{Kind: AggSum, Arg: col(1, 2)}, {Kind: AggCount}},
		}},
		{name: "HAVING and ORDER BY/LIMIT over joined groups", tables: []string{"l", "o"}, pl: &Pipeline{
			Joins:   []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0)}},
			GroupBy: []*Expr{col(1, 1)},
			Aggs:    []Agg{{Kind: AggSum, Arg: col(0, 2)}, {Kind: AggCount}},
			Having:  []OutPred{{Cmp: Gt, L: OutScalar{Col: OutCol{Idx: 1}}, R: OutScalar{Const: true, Val: 30}}},
			OrderBy: []OrderKey{{Col: OutCol{Idx: 0}, Desc: true}},
			Limit:   5,
		}},
		{name: "one hot key emits runs longer than a chunk", tables: []string{"l", "h"}, pl: &Pipeline{
			Filter: cmp(Lt, 2, 0),
			Joins:  []Join{{Build: 1, BuildKey: col(1, 0), ProbeKey: Bin(OpSub, col(0, 1), ConstExpr(3))}},
			Aggs:   []Agg{{Kind: AggCount}, {Kind: AggSum, Arg: Bin(OpMul, col(1, 1), col(0, 2))}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b *Bound
			tc.pl.Tables, b = schema.input(tc.tables...)
			for _, pl := range eachAggFirst(tc.pl) {
				p, err := CompileFast(pl, b)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.joins[0].idx.form(); tc.form != "" && got != tc.form {
					t.Errorf("join 0 index is %s, want %s", got, tc.form)
				}
				want := naiveResult(pl, b)
				for _, threads := range []int{1, 2, 5} {
					if got, _ := p.Execute(threads); got != want {
						t.Errorf("threads=%d: got %+v, want %+v", threads, got, want)
					}
				}
				if got, _ := p.Execute(3); got != want {
					t.Errorf("pooled execution diverged: got %+v, want %+v", got, want)
				}
			}
		})
	}
}

// A joined plan indexes its build side at compile time, once: repeated
// executions reuse the very index and allocate a small fraction of it.
func TestFastJoinBuildsOnce(t *testing.T) {
	const build = 60_000
	keys := make([]int64, build)
	vals := make([]int64, build)
	for i := range keys {
		keys[i], vals[i] = int64(3*i), int64(i%97)
	}
	drv := make([]int64, 5000)
	for i := range drv {
		drv[i] = int64(7 * i)
	}
	tr0, c0 := tableFixture("d", len(drv), fastCol{name: "k", i64: drv})
	tr1, c1 := tableFixture("b", build, fastCol{name: "k", i64: keys}, fastCol{name: "v", i64: vals})
	pl := &Pipeline{
		Tables: []TableRef{tr0, tr1},
		Joins:  []Join{{Build: 1, BuildKey: ColExpr(1, 0), ProbeKey: ColExpr(0, 0)}},
		Aggs:   []Agg{{Kind: AggSum, Arg: ColExpr(1, 1)}, {Kind: AggCount}},
	}
	p, err := CompileFast(pl, &Bound{Tables: [][]Col{c0, c1}})
	if err != nil {
		t.Fatal(err)
	}
	idx := p.joins[0].idx
	first, _ := p.Execute(1)
	if first.Sum == 0 {
		t.Fatalf("the join matched nothing: %+v", first)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if got, _ := p.Execute(1); got != first {
			t.Fatalf("execution %d: got %+v, want %+v", i, got, first)
		}
	}
	runtime.ReadMemStats(&after)
	if p.joins[0].idx != idx {
		t.Fatal("an execution replaced the plan's build index")
	}
	indexBytes := idx.bytes()
	if per := int(after.TotalAlloc-before.TotalAlloc) / runs; per*10 > indexBytes {
		t.Errorf("each execution allocates %d bytes, more than a tenth of the %d-byte index: it is rebuilding", per, indexBytes)
	}
}

// One joined plan serves concurrent executions: eight goroutines share
// its read-only index and must each get the reference answer (run with
// -race, this is the index's data-race check).
func TestFastJoinConcurrentExecute(t *testing.T) {
	pl := q3Shape()
	var b *Bound
	pl.Tables, b = newJoinSchema().input("l", "o", "c")
	p, err := CompileFast(pl, b)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveResult(pl, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got, _ := p.Execute(1 + (g+i)%3); got != want {
					t.Errorf("goroutine %d run %d: got %+v, want %+v", g, i, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzFastJoin builds a two- or three-table pipeline from the input and
// requires the fast plan to match the nested-loop reference bit-for-bit
// at one and three threads. keys picks the key domain — small dense
// ranges full of duplicates and misses (the direct index), sparse wide
// ones, int64 extremes, negative ranges, and dense ranges at either end
// of int64 — shape the table count, chain, grouping and output
// operators (bit 5 adds q3's revenue, v·(100 − f)/100 over the driver,
// evaluated on the gathered rows the join emits; bit 6 keeps one row
// per build key, so direct indexes are unique, and points driver rows
// at each build side's edges; bit 7 adds a group key that is a bare
// column of a build table), exprs which keys and build filters are
// computed, and widths the columns' host widths. Inputs with shape
// bits 6 and 7 clear decode as they did before those bits existed.
func FuzzFastJoin(f *testing.F) {
	for _, s := range []struct {
		seed                       int64
		shape, keys, exprs, widths uint8
	}{
		{1, 0, 0, 0, 0}, {2, 1, 1, 0x1f, 0}, {3, 7, 2, 0xff, 0}, {4, 27, 3, 0x5a, 0}, {5, 9, 4, 0x21, 0}, {6, 19, 5, 0x96, 0},
		// Unique build sides probed at their edges, at every key width;
		// then an empty and a one-row build side at every key width.
		{1, 64, 0, 0, 0}, {1, 64, 0, 0, 1}, {31, 64, 0, 0, 2}, {31, 64, 0, 0, 3},
		{66, 64, 0, 0, 0}, {66, 64, 0, 0, 1}, {66, 64, 0, 0, 2}, {66, 64, 0, 0, 3},
		{8, 64, 0, 0, 0}, {8, 64, 0, 0, 1}, {8, 64, 0, 0, 2}, {8, 64, 0, 0, 3},
		// Unique chains whose keys sit at either end of int64.
		{1, 65, 4, 0x10, 0}, {1, 65, 5, 0, 0},
		// Joined group keys: too wide to code at 8 and 4 bytes, coded at
		// 1, 2 and 4; from the third table; beside a driver key.
		{1, 192, 1, 0, 0}, {1, 192, 0, 0, 3}, {1, 192, 1, 0, 1}, {1, 192, 1, 0, 2}, {1, 192, 1, 0, 3},
		{2, 193, 0, 0x10, 1}, {31, 131, 2, 0, 0}, {152, 131, 2, 0, 0},
	} {
		f.Add(s.seed, s.shape, s.keys, s.exprs, s.widths)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, keys, exprs, widths uint8) {
		pl, b := fuzzJoinPipeline(seed, shape, keys, exprs, widths)
		for _, pl := range eachAggFirst(pl) {
			p, err := CompileFast(pl, b)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveResult(pl, b)
			for _, threads := range []int{1, 3} {
				if got, _ := p.Execute(threads); got != want {
					t.Fatalf("threads=%d: got %+v, want %+v\n%s", threads, got, want, pl)
				}
			}
		}
	})
}

// eachAggFirst returns a grouped pipeline as it is, and an ungrouped
// one once per aggregate with that aggregate first: an ungrouped Result
// reports only its first aggregate, so this is how each of them reaches
// the comparison.
func eachAggFirst(pl *Pipeline) []*Pipeline {
	if len(pl.GroupBy) > 0 {
		return []*Pipeline{pl}
	}
	var out []*Pipeline
	for ai := range pl.Aggs {
		q := *pl
		q.Aggs = append([]Agg{pl.Aggs[ai]}, slices.Delete(slices.Clone(pl.Aggs), ai, ai+1)...)
		out = append(out, &q)
	}
	return out
}

// fuzzJoinPipeline decodes one fuzz input (see FuzzFastJoin). Every
// table has columns k (the key domain), v and a byte flag f. widths
// draws host widths (see fitWidth): bits 0–1 for every table's k, so
// keys stay comparable across tables, and two bits per table for its v.
func fuzzJoinPipeline(seed int64, shape, keys, exprs, widths uint8) (*Pipeline, *Bound) {
	rng := rand.New(rand.NewSource(seed))
	key := func() int64 {
		switch keys % 6 {
		case 0:
			return rng.Int63n(24) - 4
		case 1:
			return (rng.Int63n(16) - 8) << 40
		case 2:
			return [...]int64{math.MinInt64, math.MinInt64 + 1, -1 << 62, 1 << 62, math.MaxInt64, -1, 0, 1, 2}[rng.Intn(9)]
		case 3:
			return -1000 - rng.Int63n(12)
		case 4:
			return math.MaxInt64 - rng.Int63n(10)
		default:
			return math.MinInt64 + rng.Int63n(10)
		}
	}
	ntab := 2 + int(shape&1)
	tabs := make([]fuzzTable, ntab)
	fk := fitWidth(widths)
	for t := range tabs {
		rows := 1 + rng.Intn(200)
		if t > 0 {
			rows = rng.Intn(50) // build sides may be empty
		}
		fv := fitWidth(widths >> (2 + 2*t))
		tb := fuzzTable{make([]int64, rows), make([]int64, rows), make([]byte, rows)}
		for i := range tb.k {
			tb.k[i], tb.v[i], tb.f[i] = key(), rng.Int63n(2001)-1000, byte(rng.Intn(4))
			if keys%6 == 2 {
				tb.v[i] = key() // sums and products wrap
			}
			tb.k[i], tb.v[i] = fk(tb.k[i]), fv(tb.v[i])
		}
		tabs[t] = tb
	}
	if shape&64 != 0 {
		// Unique build sides, and driver rows that probe each one's edges.
		drv := tabs[0].k
		for t := 1; t < ntab; t++ {
			tabs[t] = tabs[t].distinct()
			if len(tabs[t].k) == 0 {
				continue
			}
			lo, hi := slices.Min(tabs[t].k), slices.Max(tabs[t].k)
			drv = drv[copy(drv, keyEdges(lo, hi, widths)):]
		}
	}
	pl := &Pipeline{}
	b := &Bound{}
	for t, tb := range tabs {
		ref, cols := tableFixture(string(rune('a'+t)), len(tb.k),
			fastCol{name: "k", i64: tb.k}, fastCol{name: "v", i64: tb.v}, fastCol{name: "f", i8: tb.f})
		pl.Tables = append(pl.Tables, ref)
		b.Tables = append(b.Tables, cols)
	}
	col := ColExpr
	bit := func(n uint) bool { return exprs&(1<<n) != 0 }
	j0 := Join{Build: 1, BuildKey: col(1, 0), ProbeKey: col(0, 0)}
	if bit(0) {
		j0.ProbeKey = Bin(OpDiv, col(0, 0), ConstExpr(2))
	}
	if bit(1) {
		j0.BuildKey = Bin(OpAdd, col(1, 0), ConstExpr(1))
	}
	if bit(2) {
		j0.BuildFilter = &Pred{Op: PredCmp, Cmp: Lt, A: col(1, 2), B: ConstExpr(2)}
	}
	if bit(3) {
		computed := &Pred{Op: PredCmp, Cmp: Gt, A: Bin(OpAdd, col(1, 1), col(1, 0)), B: ConstExpr(0)}
		if j0.BuildFilter == nil {
			j0.BuildFilter = computed
		} else {
			j0.BuildFilter = and(j0.BuildFilter, computed)
		}
	}
	pl.Joins = []Join{j0}
	if ntab == 3 {
		j1 := Join{Build: 2, BuildKey: col(2, 0), ProbeKey: col(0, 0)}
		if bit(4) {
			j1.ProbeKey = col(1, 0) // chained through the first build
		}
		if bit(5) {
			j1.BuildFilter = &Pred{Op: PredCmp, Cmp: Ne, A: col(2, 2), B: ConstExpr(1)}
		}
		if bit(7) {
			j1.ProbeKey = Bin(OpMul, j1.ProbeKey, ConstExpr(3))
		}
		pl.Joins = append(pl.Joins, j1)
	}
	if bit(6) {
		pl.Filter = and(cmp(Ne, 2, 3), cmp(Lt, 1, 500))
	}
	last := ntab - 1
	pl.Aggs = []Agg{
		{Kind: AggCount},
		{Kind: AggSum, Arg: col(1, 1)},
		{Kind: AggMin, Arg: col(0, 1)},
		{Kind: AggMax, Arg: col(last, 0)},
		{Kind: AggSum, Arg: Bin(OpMul, col(0, 1), col(last, 1))},
	}
	if shape&32 != 0 {
		pl.Aggs = append(pl.Aggs, Agg{Kind: AggSum, Arg: Bin(OpDiv,
			Bin(OpMul, col(0, 1), Bin(OpSub, ConstExpr(100), col(0, 2))), ConstExpr(100))})
	}
	switch (shape >> 1) & 3 {
	case 1:
		pl.GroupBy = []*Expr{col(0, 2)} // a driver byte column: dense grouping
	case 2:
		pl.GroupBy = []*Expr{col(1, 2)}
	case 3:
		pl.GroupBy = []*Expr{Bin(OpAdd, col(0, 2), col(last, 1)), col(last, 2)}
	}
	if shape&128 != 0 {
		// A bare column of a build table, coded unless its span is too wide.
		pl.GroupBy = append(pl.GroupBy, col(1+rng.Intn(ntab-1), rng.Intn(3)))
	}
	if len(pl.GroupBy) > 0 && shape&8 != 0 {
		pl.OrderBy = []OrderKey{{Col: OutCol{Idx: 1}, Desc: true}}
		pl.Limit = 3
	}
	if len(pl.GroupBy) > 0 && shape&16 != 0 {
		pl.Having = []OutPred{{Cmp: Gt, L: OutScalar{Col: OutCol{Idx: 0}}, R: OutScalar{Const: true, Val: 1}}}
	}
	return pl, b
}

// fuzzTable is one table of a FuzzFastJoin pipeline, column by column.
type fuzzTable struct {
	k, v []int64
	f    []byte
}

// distinct keeps the first row of every key.
func (tb fuzzTable) distinct() fuzzTable {
	d := fuzzTable{[]int64{}, []int64{}, []byte{}}
	seen := map[int64]bool{}
	for i, k := range tb.k {
		if !seen[k] {
			seen[k] = true
			d.k, d.v, d.f = append(d.k, k), append(d.v, tb.v[i]), append(d.f, tb.f[i])
		}
	}
	return d
}

// keyEdges lists the probe keys at the edges of a unique index over
// keys lo…hi: just below lo, lo, hi (the span's last slot), just past
// it, and the extremes of the key width widths draws (see fitWidth) —
// the int64 extremes when it keeps values as drawn, else 0 and the
// width's top value, clamping every edge into that width.
func keyEdges(lo, hi int64, widths uint8) []int64 {
	edges := []int64{lo - 1, lo, hi, hi + 1, math.MinInt64, math.MaxInt64}
	if bits := [...]uint{0, 8, 16, 32}[widths&3]; bits != 0 {
		for i, e := range edges {
			edges[i] = min(max(e, 0), 1<<bits-1)
		}
	}
	return edges
}
