package relop

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"olapmicro/internal/engine"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
)

// fastCol describes one synthetic column: exactly one of i64/i8 set.
type fastCol struct {
	name string
	i64  []int64
	i8   []byte
}

// intsOf builds a column's host values from v.
func intsOf[T int64 | byte](v []T) *storage.Ints {
	c := storage.MakeInts(len(v))
	for _, x := range v {
		c.Append(int64(x))
	}
	return &c
}

// tableFixture binds one synthetic table over the columns.
func tableFixture(name string, rows int, cols ...fastCol) (TableRef, []Col) {
	as := probe.NewAddrSpace()
	tr := TableRef{Name: name, Rows: rows}
	var bound []Col
	for _, c := range cols {
		if c.i64 != nil {
			tr.Cols = append(tr.Cols, ColSpec{Name: c.name, Kind: I64})
			col := storage.NewColI64(as, name+"."+c.name, intsOf(c.i64))
			bound = append(bound, Col{Kind: I64, V: col.V, R: col.R})
		} else {
			tr.Cols = append(tr.Cols, ColSpec{Name: c.name, Kind: I8})
			col := storage.NewColI8(as, name+"."+c.name, intsOf(c.i8))
			bound = append(bound, Col{Kind: I8, V: col.V, R: col.R})
		}
	}
	return tr, bound
}

// fastFixture builds a single-table pipeline input over the columns.
func fastFixture(rows int, cols ...fastCol) (TableRef, *Bound) {
	tr, bound := tableFixture("t", rows, cols...)
	return tr, &Bound{Tables: [][]Col{bound}}
}

// aggSeed mirrors the executors' fold identities.
func aggSeed(k AggKind) int64 {
	switch k {
	case AggMin:
		return math.MaxInt64
	case AggMax:
		return math.MinInt64
	}
	return 0
}

func naiveFold(k AggKind, acc, v int64) int64 {
	switch k {
	case AggSum:
		return acc + v
	case AggCount:
		return acc + 1
	case AggMin:
		if v < acc {
			return v
		}
		return acc
	default: // AggMax
		if v > acc {
			return v
		}
		return acc
	}
}

// naiveResult executes the pipeline row-at-a-time through the plan
// tree's own Eval methods — the driver filter, then every join as a
// nested loop over its whole build table — and finalizes the single
// partial: the reference every fast execution must match bit-for-bit.
func naiveResult(pl *Pipeline, b *Bound) engine.Result {
	part := &Partial{Scalar: make([]int64, len(pl.Aggs))}
	for ai, a := range pl.Aggs {
		part.Scalar[ai] = aggSeed(a.Kind)
	}
	grouped := len(pl.GroupBy) > 0
	if grouped {
		part.Aggs = make([][]int64, len(pl.Aggs))
		part.Scalar = nil
	}
	seen := map[string]int{}
	rows := make([]int, len(pl.Tables))
	var join func(ji int)
	join = func(ji int) {
		if ji < len(pl.Joins) {
			j := pl.Joins[ji]
			key := j.ProbeKey.Eval(b, rows)
			for r := 0; r < pl.Tables[j.Build].Rows; r++ {
				rows[j.Build] = r
				if (j.BuildFilter == nil || j.BuildFilter.Eval(b, rows)) && j.BuildKey.Eval(b, rows) == key {
					join(ji + 1)
				}
			}
			return
		}
		part.Matched++
		if !grouped {
			for ai, a := range pl.Aggs {
				var v int64
				if a.Kind != AggCount {
					v = a.Arg.Eval(b, rows)
				}
				part.Scalar[ai] = naiveFold(a.Kind, part.Scalar[ai], v)
			}
			return
		}
		tuple := make([]int64, len(pl.GroupBy))
		for k, g := range pl.GroupBy {
			tuple[k] = g.Eval(b, rows)
		}
		gi, ok := seen[tupleKey(tuple)]
		if !ok {
			gi = len(part.Tuples)
			seen[tupleKey(tuple)] = gi
			part.Tuples = append(part.Tuples, tuple)
			for ai, a := range pl.Aggs {
				part.Aggs[ai] = append(part.Aggs[ai], aggSeed(a.Kind))
			}
		}
		for ai, a := range pl.Aggs {
			var v int64
			if a.Kind != AggCount {
				v = a.Arg.Eval(b, rows)
			}
			part.Aggs[ai][gi] = naiveFold(a.Kind, part.Aggs[ai][gi], v)
		}
	}
	for r := 0; r < pl.Tables[0].Rows; r++ {
		rows[0] = r
		if pl.Filter == nil || pl.Filter.Eval(b, rows) {
			join(0)
		}
	}
	return FinalizeProbed(nil, pl, []*Partial{part})
}

// cmp builds `col(c) op const(v)`.
func cmp(op CmpOp, c int, v int64) *Pred {
	return &Pred{Op: PredCmp, Cmp: op, A: ColExpr(0, c), B: ConstExpr(v)}
}

func and(l, r *Pred) *Pred { return &Pred{Op: PredAnd, L: l, R: r} }

// between builds `col(c) between lo and hi`.
func between(c int, lo, hi int64) *Pred {
	return &Pred{Op: PredBetween, A: ColExpr(0, c), B: ConstExpr(lo), C: ConstExpr(hi)}
}

// TestFastPlanMatchesNaive drives CompileFast over the predicate,
// aggregation and grouping shapes the compiler specializes — span
// normalization with data-dependent clamping (never/always/point
// ranges), staged filters with computed-conjunct remainders, magic
// division, direct-coded grouping, hash grouping with table growth —
// and requires every one to finalize bit-identically to the row-at-a-
// time reference at several thread counts, including counts that do
// not divide the row count.
func TestFastPlanMatchesNaive(t *testing.T) {
	const rows = 2500 // not a chunk multiple: exercises the ragged tail
	rng := rand.New(rand.NewSource(42))
	a64 := make([]int64, rows) // small signed range
	b64 := make([]int64, rows) // wider signed range
	f8 := make([]byte, rows)   // 3-valued flag
	g8 := make([]byte, rows)   // 17-valued status
	w64 := make([]int64, rows) // range wider than 2^62: span tests must bail
	k64 := make([]int64, rows) // high-cardinality, wide-span hash group key
	for i := 0; i < rows; i++ {
		a64[i] = rng.Int63n(101) - 50
		b64[i] = rng.Int63n(2_000_001) - 1_000_000
		f8[i] = byte(rng.Intn(3))
		g8[i] = byte(rng.Intn(17))
		w64[i] = rng.Int63() - (1 << 62)
		k64[i] = rng.Int63n(1200) * 1000 // a span past codeSpace: hashed
	}
	w64[7] = math.MinInt64 + 1
	w64[11] = math.MaxInt64 - 1
	d16 := make([]int64, rows) // day numbers: 2-byte lanes
	e8 := make([]byte, rows)   // every byte value: the lanes' fallback
	dr := rand.New(rand.NewSource(43))
	for i := range d16 {
		d16[i] = 8000 + dr.Int63n(2526)
		e8[i] = byte(i)
	}
	tr, bound := fastFixture(rows,
		fastCol{name: "a", i64: a64}, fastCol{name: "b", i64: b64},
		fastCol{name: "f", i8: f8}, fastCol{name: "g", i8: g8},
		fastCol{name: "w", i64: w64}, fastCol{name: "k", i64: k64},
		fastCol{name: "d", i64: d16}, fastCol{name: "e", i8: e8})
	const (
		colA, colB, colF, colG, colW, colK, colD, colE = 0, 1, 2, 3, 4, 5, 6, 7
	)
	sumA := Agg{Kind: AggSum, Arg: ColExpr(0, colA)}
	count := Agg{Kind: AggCount}

	cases := []struct {
		name  string
		pl    *Pipeline
		empty bool // the filter is proven empty: nothing is scanned
	}{
		{name: "scalar all aggs, between filter", pl: &Pipeline{
			Filter: &Pred{Op: PredBetween, A: ColExpr(0, colA), B: ConstExpr(-10), C: ConstExpr(20)},
			Aggs: []Agg{sumA, count,
				{Kind: AggMin, Arg: ColExpr(0, colB)}, {Kind: AggMax, Arg: ColExpr(0, colB)}},
		}},
		{name: "scalar without filter folds contiguous runs at every width", pl: &Pipeline{
			Aggs: []Agg{count, sumA,
				{Kind: AggMin, Arg: ColExpr(0, colK)}, {Kind: AggMax, Arg: ColExpr(0, colK)},
				{Kind: AggMin, Arg: ColExpr(0, colF)}, {Kind: AggMax, Arg: ColExpr(0, colG)},
				{Kind: AggSum, Arg: Bin(OpMul, ColExpr(0, colA), ColExpr(0, colK))}},
		}},
		{name: "computed conjunct stays behind span stages", pl: &Pipeline{
			Filter: and(&Pred{Op: PredCmp, Cmp: Lt,
				A: Bin(OpAdd, ColExpr(0, colA), ColExpr(0, colB)), B: ConstExpr(10)},
				cmp(Ge, colA, -25)),
			Aggs: []Agg{sumA, count},
		}},
		{name: "conjunct beyond the column range matches nothing", pl: &Pipeline{
			Filter: and(cmp(Gt, colA, 1000), cmp(Ge, colA, -25)),
			Aggs:   []Agg{sumA, count},
		}, empty: true},
		{name: "conjunct covering the column range drops out", pl: &Pipeline{
			Filter: and(cmp(Le, colA, math.MaxInt64), cmp(Lt, colA, 0)),
			Aggs:   []Agg{sumA, count},
		}},
		{name: "not-equal point and vacuous not-equal", pl: &Pipeline{
			Filter: and(cmp(Ne, colA, 7), cmp(Ne, colA, 200)),
			Aggs:   []Agg{sumA, count},
		}},
		{name: "comparison extremes", pl: &Pipeline{
			Filter: and(cmp(Gt, colA, math.MinInt64), cmp(Lt, colA, math.MaxInt64)),
			Aggs:   []Agg{sumA, count},
		}},
		{name: "same-column range pair scans as one 2-byte span", pl: &Pipeline{
			Filter: and(cmp(Ge, colD, 9000), cmp(Lt, colD, 9400)),
			Aggs:   []Agg{{Kind: AggSum, Arg: ColExpr(0, colB)}, count},
		}},
		{name: "q6 shape: day range pair, byte between, byte bound", pl: &Pipeline{
			Filter: and(and(cmp(Ge, colD, 8500), cmp(Lt, colD, 9100)), and(between(colG, 3, 5), cmp(Lt, colF, 2))),
			Aggs: []Agg{{Kind: AggSum, Arg: Bin(OpDiv, Bin(OpMul, ColExpr(0, colB), ColExpr(0, colG)), ConstExpr(100))},
				count},
		}},
		{name: "between and a bound on one 8-byte column merge", pl: &Pipeline{
			Filter: and(between(colA, -30, 25), cmp(Le, colA, 10)),
			Aggs:   []Agg{sumA, count},
		}},
		{name: "byte column at its true extremes, between and a hole", pl: &Pipeline{
			Filter: and(and(between(colE, 1, 254), cmp(Gt, colE, 0)), cmp(Ne, colE, 128)),
			Aggs:   []Agg{{Kind: AggSum, Arg: ColExpr(0, colE)}, count},
		}},
		{name: "not-equal beside a range on one column stays apart", pl: &Pipeline{
			Filter: and(cmp(Ne, colG, 4), and(cmp(Ge, colG, 2), cmp(Lt, colG, 9))),
			Aggs:   []Agg{sumA, count},
		}},
		{name: "empty same-column intersection scans nothing", pl: &Pipeline{
			Filter: and(cmp(Ge, colB, -5), and(cmp(Ge, colD, 9000), cmp(Lt, colD, 9000))),
			Aggs:   []Agg{sumA, count},
		}, empty: true},
		{name: "disjoint byte ranges scan nothing", pl: &Pipeline{
			Filter: and(cmp(Lt, colG, 5), between(colG, 9, 12)),
			Aggs:   []Agg{sumA, count},
		}, empty: true},
		{name: "span test bails on a 2^62-wide column", pl: &Pipeline{
			Filter: cmp(Gt, colW, 0),
			Aggs:   []Agg{{Kind: AggSum, Arg: ColExpr(0, colW)}, count},
		}},
		{name: "magic division and multiplication", pl: &Pipeline{
			Filter: cmp(Le, colA, 30),
			Aggs: []Agg{
				{Kind: AggSum, Arg: Bin(OpDiv, ColExpr(0, colB), ConstExpr(7))},
				{Kind: AggSum, Arg: Bin(OpDiv, ColExpr(0, colB), ConstExpr(-3))},
				{Kind: AggSum, Arg: Bin(OpDiv, ColExpr(0, colB), ConstExpr(1))},
				{Kind: AggSum, Arg: Bin(OpDiv, ColExpr(0, colB), ConstExpr(0))},
				{Kind: AggSum, Arg: Bin(OpMul, ColExpr(0, colA), ColExpr(0, colB))},
			},
		}},
		{name: "fused one byte key", pl: &Pipeline{
			Filter:  cmp(Lt, colA, 10),
			GroupBy: []*Expr{ColExpr(0, colF)},
			Aggs:    []Agg{sumA, count},
		}},
		{name: "fused two byte keys, specialized sum+count", pl: &Pipeline{
			Filter:  cmp(Lt, colA, 10),
			GroupBy: []*Expr{ColExpr(0, colF), ColExpr(0, colG)},
			Aggs:    []Agg{sumA, count},
		}},
		{name: "fused no filter", pl: &Pipeline{
			GroupBy: []*Expr{ColExpr(0, colF), ColExpr(0, colG)},
			Aggs:    []Agg{sumA, count},
		}},
		{name: "fused several conjuncts and byte-column sum", pl: &Pipeline{
			Filter:  and(cmp(Lt, colA, 30), and(cmp(Ge, colB, -600_000), cmp(Ne, colG, 5))),
			GroupBy: []*Expr{ColExpr(0, colF), ColExpr(0, colG)},
			Aggs: []Agg{sumA, count,
				{Kind: AggSum, Arg: ColExpr(0, colG)}, {Kind: AggCount}},
		}},
		{name: "min aggregate keeps the staged dense path", pl: &Pipeline{
			Filter:  cmp(Lt, colA, 10),
			GroupBy: []*Expr{ColExpr(0, colF), ColExpr(0, colG)},
			Aggs:    []Agg{sumA, {Kind: AggMin, Arg: ColExpr(0, colB)}},
		}},
		{name: "computed conjunct keeps the staged dense path", pl: &Pipeline{
			Filter: &Pred{Op: PredCmp, Cmp: Lt,
				A: Bin(OpAdd, ColExpr(0, colA), ColExpr(0, colB)), B: ConstExpr(10)},
			GroupBy: []*Expr{ColExpr(0, colF)},
			Aggs:    []Agg{sumA, count},
		}},
		{name: "hash grouping grows past its estimate", pl: &Pipeline{
			Filter:    cmp(Ge, colA, -40),
			GroupBy:   []*Expr{ColExpr(0, colK)},
			Aggs:      []Agg{sumA, count},
			EstGroups: 4,
		}},
		{name: "grouping on a computed key", pl: &Pipeline{
			GroupBy: []*Expr{Bin(OpAdd, ColExpr(0, colF), ConstExpr(100))},
			Aggs:    []Agg{sumA, count},
		}},
	}
	check := func(t *testing.T, pl *Pipeline, bound *Bound, empty bool) {
		p, err := CompileFast(pl, bound)
		if err != nil {
			t.Fatal(err)
		}
		if scans := p.rows != 0; scans == empty {
			t.Errorf("plan scans %d rows; proven empty: %v", p.rows, empty)
		}
		want := naiveResult(pl, bound)
		for _, threads := range []int{1, 2, 5} {
			got, _ := p.Execute(threads)
			if got != want {
				t.Errorf("threads=%d: got %+v, want %+v", threads, got, want)
			}
		}
		// Pooled workers must reset cleanly: a second pass over the
		// same plan sees reused state.
		if got, _ := p.Execute(3); got != want {
			t.Errorf("second execution diverged: got %+v, want %+v", got, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.pl.Tables = []TableRef{tr}
			for _, pl := range eachAggFirst(tc.pl) {
				check(t, pl, bound, tc.empty)
			}
		})
	}

	// Direct-coded groupings filtered by span tests alone, whose rejected
	// rows go to the discard code 64 rows at a time, over tables of
	// 64·k − 1, 64·k and 64·k + 1 rows: at k = 16 the last chunk is one
	// row, a full chunk or a block and one row; at k = 33 it ends in a
	// block of 63 rows, a full block, or a full block and one row.
	for _, rows := range []int{64*16 - 1, 64 * 16, 64*16 + 1, 64*33 - 1, 64 * 33, 64*33 + 1} {
		tr, bound := codedFixture(rows)
		for _, tc := range codedDiscardCases() {
			t.Run(fmt.Sprintf("coded discard/%d rows/%s", rows, tc.name), func(t *testing.T) {
				tc.pl.Tables = []TableRef{tr}
				check(t, tc.pl, bound, false)
				if p, _ := CompileFast(tc.pl, bound); !p.codes.chunked || len(p.codes.masks) != tc.masks {
					t.Errorf("%s, %d span masks; want the chunked coded path with %d", p.GroupPath(), len(p.codes.masks), tc.masks)
				}
			})
		}
	}
}

// Columns of codedFixture.
const (
	codedF, codedG, codedU8, codedD16, codedU32, codedS64, codedP, codedQ = 0, 1, 2, 3, 4, 5, 6, 7
)

// codedFixture is a table for direct-coded groupings under span tests at
// every host width: byte keys f (3 values) and g (17); u8, d16 and u32,
// whose values take 1, 2 and 4 bytes; s64, signed, which takes 8; and p,
// constant over each 64-row block ((row/64) mod 3), and q = (p + 1) mod
// 3, so a span on p passes every row of some blocks and none of others.
func codedFixture(rows int) (TableRef, *Bound) {
	rng := rand.New(rand.NewSource(int64(rows)))
	f, g, u8, p, q := make([]byte, rows), make([]byte, rows), make([]byte, rows), make([]byte, rows), make([]byte, rows)
	d16, u32, s64 := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	for i := range rows {
		f[i], g[i], u8[i] = byte(rng.Intn(3)), byte(rng.Intn(17)), byte(rng.Intn(100))
		p[i] = byte(i / 64 % 3)
		q[i] = (p[i] + 1) % 3
		d16[i] = 8000 + rng.Int63n(2526)
		u32[i] = 70_000 + rng.Int63n(1_000_000)
		s64[i] = rng.Int63n(1_000_001) - 500_000
	}
	// The points the negated spans of codedDiscardCases cut out.
	u8[5], d16[5], u32[5], s64[5] = 7, 8001, 70_000, 0
	return fastFixture(rows,
		fastCol{name: "f", i8: f}, fastCol{name: "g", i8: g}, fastCol{name: "u8", i8: u8},
		fastCol{name: "d16", i64: d16}, fastCol{name: "u32", i64: u32}, fastCol{name: "s64", i64: s64},
		fastCol{name: "p", i8: p}, fastCol{name: "q", i8: q})
}

// codedDiscardCase is a direct-coded grouping over codedFixture and the
// number of span masks its filter compiles to.
type codedDiscardCase struct {
	name  string
	pl    *Pipeline
	masks int
}

// codedDiscardCases groups codedFixture by byte keys (the two-byte-key
// pass and, for one key, the generic one) or by a 2-byte key beside a
// byte key (past the lanes' code count), filtered by span tests alone.
func codedDiscardCases() []codedDiscardCase {
	aggs := []Agg{{Kind: AggSum, Arg: ColExpr(0, codedS64)}, {Kind: AggCount},
		{Kind: AggMin, Arg: ColExpr(0, codedU32)}, {Kind: AggMax, Arg: ColExpr(0, codedD16)}}
	fg := []*Expr{ColExpr(0, codedF), ColExpr(0, codedG)}
	grouped := func(keys []*Expr, filter *Pred) *Pipeline {
		return &Pipeline{Filter: filter, GroupBy: keys, Aggs: aggs}
	}
	every := and(and(cmp(Lt, codedU8, 60), between(codedD16, 8200, 10_000)),
		and(cmp(Ge, codedU32, 300_000), cmp(Lt, codedS64, 250_000)))
	return []codedDiscardCase{
		{"1-byte span", grouped(fg, cmp(Lt, codedU8, 40)), 1},
		{"2-byte span", grouped(fg, between(codedD16, 8500, 9100)), 1},
		{"4-byte span", grouped(fg, cmp(Ge, codedU32, 500_000)), 1},
		{"8-byte span", grouped(fg, cmp(Lt, codedS64, 12_345)), 1},
		{"negated span at every width", grouped(fg, and(and(cmp(Ne, codedU8, 7), cmp(Ne, codedD16, 8001)),
			and(cmp(Ne, codedU32, 70_000), cmp(Ne, codedS64, 0)))), 4},
		{"spans at every width, one key", grouped([]*Expr{ColExpr(0, codedG)}, every), 4},
		{"spans at every width, 2-byte key without lanes",
			grouped([]*Expr{ColExpr(0, codedD16), ColExpr(0, codedF)}, every), 4},
		{"whole blocks pass or fail", grouped(fg, and(cmp(Ne, codedP, 1), cmp(Le, codedU8, 90))), 2},
		{"no row of any block passes", grouped(fg, and(cmp(Eq, codedP, 0), cmp(Ne, codedQ, 1))), 2},
	}
}

// TestFastPlanEmptyTable pins the zero-row edge for scalar and fused
// grouped shapes.
func TestFastPlanEmptyTable(t *testing.T) {
	tr, bound := fastFixture(0,
		fastCol{name: "a", i64: []int64{}}, fastCol{name: "f", i8: []byte{}})
	for _, pl := range []*Pipeline{
		{Tables: []TableRef{tr}, Filter: cmp(Lt, 0, 10),
			Aggs: []Agg{{Kind: AggSum, Arg: ColExpr(0, 0)}, {Kind: AggCount}}},
		{Tables: []TableRef{tr}, GroupBy: []*Expr{ColExpr(0, 1)},
			Aggs: []Agg{{Kind: AggCount}}},
	} {
		p, err := CompileFast(pl, bound)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveResult(pl, bound)
		if got, _ := p.Execute(4); got != want {
			t.Errorf("empty table: got %+v, want %+v", got, want)
		}
	}
}

// TestDivMagic checks the strength-reduced signed division against the
// hardware operator across divisor structure (powers of two and their
// neighbors, both signs, the int64 extremes) and a value sweep that
// includes every boundary the shift-and-fix sequence could mishandle.
func TestDivMagic(t *testing.T) {
	divisors := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	for d := int64(2); d <= 300; d++ {
		divisors = append(divisors, d, -d)
	}
	for k := uint(1); k < 63; k++ {
		p := int64(1) << k
		divisors = append(divisors, p, -p, p+1, -(p + 1))
	}
	values := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		values = append(values, rng.Int63()-rng.Int63())
	}
	for _, d := range divisors {
		if d == 0 || d == 1 || d == -1 || d == math.MinInt64 {
			continue
		}
		m, s := divMagic(d)
		var adj int64
		if d > 0 && m < 0 {
			adj = 1
		} else if d < 0 && m > 0 {
			adj = -1
		}
		for _, n := range values {
			q := mulHi(m, n) + n*adj
			q >>= s
			q += int64(uint64(q) >> 63)
			if q != n/d {
				t.Fatalf("divMagic(%d): %d/%d = %d, got %d (m=%d s=%d)", d, n, d, n/d, q, m, s)
			}
		}
	}
}
