package relop

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// FuzzFastGroup builds a one-table grouped pipeline from the input and
// requires the fast plan to match the row-at-a-time reference
// bit-for-bit at one, two, five and three threads; every execution
// after the first runs on pooled workers. keys picks the key shape (one or two keys, byte or int64),
// domain the key values — small negative ranges, ranges at MinInt64 and
// MaxInt64, ±2⁶² and the int64 extremes, and spans whose product sits
// at 2^16 − 1 or 2^16 (the code-space cap and one past it) — shape the
// filter (none, span tests only, a computed conjunct, or one matching
// nothing), the output operators and the table size, and aggs which
// aggregates run, with computed arguments that divide by zero and wrap.
// keys bits 2–7 add aggregates over affine chains, fused pairs and
// constant divisors whose constants the seed draws (fuzzConst), so the
// expression compiler's folds and both of its divisions run too.
// shape bits 5–7 add conjuncts on one column (fuzzPair) whose
// constants the seed draws too: pairs that intersect into one span, a
// hole beside a range that must stay apart, and an empty intersection.
// A table under one chunk runs on one worker whatever the thread count;
// shape bit 16 draws two to six chunks, so the workers' partial tables
// are merged. widths draws the host width of the int64-kinded columns
// a, b and v, two bits each (see fitWidth), so every width's kernel
// instantiations — mixed pairs included — run against the reference.
func FuzzFastGroup(f *testing.F) {
	for _, s := range []struct {
		seed                              int64
		keys, domain, shape, aggs, widths uint8
	}{
		{1, 2, 0, 1, 0x03, 0}, {2, 3, 6, 0, 0xff, 0}, {3, 3, 7, 1, 0x0f, 0}, {4, 0, 4, 2, 0x1d, 0},
		{5, 0, 5, 5, 0x42, 0}, {6, 2, 1, 9, 0x8c, 0}, {7, 3, 2, 1, 0x31, 0}, {8, 1, 19, 2, 0x7e, 0},
		{9, 1, 8, 3, 0x01, 0}, {10, 2, 11, 1, 0x24, 0},
		{11, 3, 6, 17, 0xff, 0}, {12, 1, 0, 20, 0x7e, 0}, {13, 2, 1, 18, 0x2d, 0}, {14, 0, 5, 17, 0x0f, 0},
		{15, 3, 0, 25, 0xe3, 0}, {16, 0, 2, 16, 0x5a, 0},
	} {
		f.Add(s.seed, s.keys, s.domain, s.shape, s.aggs, s.widths)
	}
	f.Fuzz(func(t *testing.T, seed int64, keys, domain, shape, aggs, widths uint8) {
		pl, b := fuzzGroupPipeline(seed, keys, domain, shape, aggs, widths)
		p, err := CompileFast(pl, b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveResult(pl, b)
		for _, threads := range []int{1, 2, 5, 3} {
			if got, _ := p.Execute(threads); got != want {
				t.Fatalf("threads=%d: got %+v, want %+v\n%s", threads, got, want, pl)
			}
		}
	})
}

// fuzzConst draws the constants of FuzzFastGroup's computed aggregates
// from the seed: edge values (zero, ±1, the int64 extremes, ±2⁶², 2³²
// and its neighbour) a quarter of the time, small values of both signs
// — divisors whose dividends stay provably in [0, 2³²) — half of it,
// and any int64 otherwise.
func fuzzConst(seed int64) func() int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return func() int64 {
		switch rng.Intn(4) {
		case 0:
			return [...]int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 62, -1 << 62, 1<<32 - 1, 1 << 32}[rng.Intn(9)]
		case 1, 2:
			return rng.Int63n(601) - 300
		}
		return rng.Int63() - rng.Int63()
	}
}

// fuzzPair builds FuzzFastGroup's same-column conjuncts, nil for kind 0
// so the corpus from before them replays unchanged. The constants come
// from fuzzConst fitted to the column's width (fv for v, fa for a), so
// most land inside the column's values and some at its width's edges,
// where the span clamps: v ≥ c and v < c′; v between c and c′ and
// v ≤ c″; v ≠ c beside v ≥ c′ (not merged: a hole is not a range);
// v ≥ c and v < c (empty, whatever c is); the byte column f between and
// above constants within its four values, which reach 255 when flo is
// 252; three ranges on v; and a ≥ c and a < c′ on the key column.
func fuzzPair(kind uint8, seed int64, flo int, fa, fv func(int64) int64) *Pred {
	const colA, colF, colV = 0, 2, 3
	k := fuzzConst(^seed)
	cv := func() int64 { return fv(k()) }
	cf := func() int64 { return int64(flo) + k()&3 }
	switch kind {
	case 1:
		return and(cmp(Ge, colV, cv()), cmp(Lt, colV, cv()))
	case 2:
		return and(between(colV, cv(), cv()), cmp(Le, colV, cv()))
	case 3:
		return and(cmp(Ne, colV, cv()), cmp(Ge, colV, cv()))
	case 4:
		c := cv()
		return and(cmp(Ge, colV, c), cmp(Lt, colV, c))
	case 5:
		return and(between(colF, cf(), cf()), cmp(Gt, colF, cf()))
	case 6:
		return and(and(cmp(Gt, colV, cv()), cmp(Le, colV, cv())), between(colV, cv(), cv()))
	case 7:
		return and(cmp(Ge, colA, fa(k())), cmp(Lt, colA, fa(k())))
	}
	return nil
}

// fitWidth bounds a column's values to the host width code w draws:
// 0 keeps them as drawn (whatever width they need, 8 bytes for any
// negative value), 1, 2 and 3 fit them in one, two and four bytes.
// A fitted value keeps its low bits below the width's top bit and sets
// that bit, so the column takes exactly that width; the map is a
// function of the value, so equal values stay equal.
func fitWidth(w uint8) func(int64) int64 {
	bits := [...]uint{0, 8, 16, 32}[w&3]
	if bits == 0 {
		return func(x int64) int64 { return x }
	}
	top := int64(1) << (bits - 1)
	return func(x int64) int64 { return x&(top-1) | top }
}

// fuzzGroupPipeline decodes one fuzz input (see FuzzFastGroup). The
// table's columns are a and b (int64 keys), f (byte key), v (int64
// value) and w (byte value, 0 a third of the time).
func fuzzGroupPipeline(seed int64, keys, domain, shape, aggs, widths uint8) (*Pipeline, *Bound) {
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Intn(400)
	if shape&16 != 0 {
		rows = 2*fastChunk + rng.Intn(4*fastChunk)
	}
	type dom struct{ lo, span int64 }
	var da, db dom
	wide := false
	switch domain % 8 {
	case 0:
		da, db = dom{-20, 13}, dom{-3, 5}
	case 1:
		da, db = dom{math.MinInt64, 8}, dom{math.MinInt64, 3}
	case 2:
		da, db = dom{math.MaxInt64 - 7, 8}, dom{math.MaxInt64 - 2, 3}
	case 3:
		wide = true
	case 4:
		da, db = dom{-5, 1<<16 - 1}, dom{0, 1}
	case 5:
		da, db = dom{-5, 1 << 16}, dom{0, 1}
	case 6:
		da, db = dom{100, 255}, dom{-7, 257} // 255·257 = 2^16 − 1
	default:
		da, db = dom{100, 256}, dom{-7, 256} // 256·256 = 2^16
	}
	draw := func(d dom, i int) int64 {
		switch {
		case wide:
			return [...]int64{math.MinInt64, math.MaxInt64, -1 << 62, 1 << 62, 0, -1}[rng.Intn(6)]
		case i == 0:
			return d.lo
		case i == 1:
			return d.lo + (d.span - 1)
		}
		return d.lo + rng.Int63n(d.span)
	}
	fa, fb, fv := fitWidth(widths), fitWidth(widths>>2), fitWidth(widths>>4)
	flo := int(domain>>3&1) * 252
	a, bk, v := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	f, w := make([]byte, rows), make([]byte, rows)
	for i := 0; i < rows; i++ {
		a[i], bk[i] = fa(draw(da, i)), fb(draw(db, i))
		f[i], w[i] = byte(flo+rng.Intn(4)), byte(rng.Intn(3))
		v[i] = rng.Int63n(2001) - 1000
		if domain&16 != 0 {
			v[i] = rng.Int63() - rng.Int63() // sums and products wrap
		}
		v[i] = fv(v[i])
	}
	tr, bound := fastFixture(rows,
		fastCol{name: "a", i64: a}, fastCol{name: "b", i64: bk}, fastCol{name: "f", i8: f},
		fastCol{name: "v", i64: v}, fastCol{name: "w", i8: w})
	const colA, colB, colF, colV, colW = 0, 1, 2, 3, 4
	col := func(c int) *Expr { return ColExpr(0, c) }
	pl := &Pipeline{Tables: []TableRef{tr}}
	switch keys % 4 {
	case 0:
		pl.GroupBy = []*Expr{col(colA)}
	case 1:
		pl.GroupBy = []*Expr{col(colF)}
	case 2:
		pl.GroupBy = []*Expr{col(colA), col(colF)}
	default:
		pl.GroupBy = []*Expr{col(colA), col(colB)}
	}
	switch shape % 4 {
	case 1:
		pl.Filter = and(cmp(Lt, colV, fv(500)), and(cmp(Ne, colF, int64(flo+1)), cmp(Ge, colA, fa(da.lo+1))))
	case 2:
		pl.Filter = and(cmp(Ge, colV, fv(-800)),
			&Pred{Op: PredCmp, Cmp: Gt, A: Bin(OpAdd, col(colV), col(colW)), B: ConstExpr(-200)})
	case 3:
		pl.Filter = cmp(Gt, colW, 200) // no row has w > 2: an empty result
	}
	if pair := fuzzPair(shape>>5, seed, flo, fa, fv); pair != nil {
		if pl.Filter != nil {
			pair = and(pl.Filter, pair)
		}
		pl.Filter = pair
	}
	all := []Agg{
		{Kind: AggCount},
		{Kind: AggSum, Arg: col(colV)},
		{Kind: AggMin, Arg: Bin(OpDiv, col(colV), col(colW))}, // w = 0 divides by zero
		{Kind: AggMax, Arg: Bin(OpMul, col(colV), col(colA))},
		{Kind: AggSum, Arg: Bin(OpMul, col(colA), col(colB))},
		{Kind: AggMin, Arg: col(colF)},
		{Kind: AggMax, Arg: Bin(OpSub, col(colA), col(colV))},
		{Kind: AggSum, Arg: col(colW)},
	}
	for i, ag := range all {
		if aggs&(1<<i) != 0 {
			pl.Aggs = append(pl.Aggs, ag)
		}
	}
	k := fuzzConst(seed)
	c := func() *Expr { return ConstExpr(k()) }
	computed := []Agg{
		{Kind: AggSum, Arg: Bin(OpSub, Bin(OpMul, Bin(OpAdd, col(colV), c()), c()), c())},
		{Kind: AggMax, Arg: Bin(OpSub, c(), Bin(OpMul, col(colA), c()))},
		{Kind: AggSum, Arg: Bin(OpDiv, col(colV), c())},
		{Kind: AggMin, Arg: Bin(OpDiv, Bin(OpMul, Bin(OpAdd, col(colA), c()), Bin(OpSub, c(), col(colB))), c())},
		{Kind: AggSum, Arg: Bin(OpDiv, Bin(OpAdd, Bin(OpMul, col(colV), col(colW)), c()), c())},
		{Kind: AggMax, Arg: Bin(OpDiv, Bin(OpSub, col(colA), c()), Bin(OpAdd, col(colB), c()))},
	}
	for i, ag := range computed {
		if keys&(4<<i) != 0 {
			pl.Aggs = append(pl.Aggs, ag)
		}
	}
	if len(pl.Aggs) == 0 {
		pl.Aggs = all[:2]
	}
	if shape&4 != 0 {
		pl.OrderBy = []OrderKey{{Col: OutCol{Idx: 0}, Desc: true}}
		pl.Limit = 3
	}
	if shape&8 != 0 {
		pl.Having = []OutPred{{Cmp: Gt, L: OutScalar{Col: OutCol{Idx: 0}}, R: OutScalar{Const: true, Val: 1}}}
	}
	return pl, bound
}

// One direct-coded plan whose filter is span tests at every host width
// serves concurrent executions: its mask kernels are built once, with
// the plan, and shared by every worker of every execution, so a kernel
// that kept per-call state would race here (run with -race) or answer
// wrong.
func TestFastCodedDiscardConcurrentExecute(t *testing.T) {
	tr, b := codedFixture(64*33 + 1)
	for _, tc := range codedDiscardCases() {
		pl := tc.pl
		pl.Tables = []TableRef{tr}
		p, err := CompileFast(pl, b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveResult(pl, b)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 3 {
					if got, _ := p.Execute(1 + (g+i)%3); got != want {
						t.Errorf("%s: goroutine %d run %d: got %+v, want %+v", tc.name, g, i, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}
