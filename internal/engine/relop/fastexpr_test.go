package relop

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// exprFixture binds a 1 500-row table — one full chunk and a ragged
// tail — with columns a and b at the host width code w draws (see
// fitWidth; code 0 mixes in negative values and the int64 extremes, so
// products and sums wrap) and a byte column f in 0..3.
func exprFixture(w uint8) (*Pipeline, *Bound) {
	const rows = 1500
	rng := rand.New(rand.NewSource(int64(w) + 11))
	fit := fitWidth(w)
	a, b, f := make([]int64, rows), make([]int64, rows), make([]byte, rows)
	for i := range a {
		a[i], b[i] = rng.Int63n(2001)-1000, rng.Int63n(401)-200
		if w == 0 && i%10 == 0 {
			a[i] = [...]int64{math.MinInt64, math.MaxInt64, -1 << 62, 1 << 62, 1<<32 - 1}[rng.Intn(5)]
		}
		a[i], b[i], f[i] = fit(a[i]), fit(b[i]), byte(rng.Intn(4))
	}
	tr, bound := fastFixture(rows, fastCol{name: "a", i64: a}, fastCol{name: "b", i64: b}, fastCol{name: "f", i8: f})
	return &Pipeline{Tables: []TableRef{tr}}, bound
}

// checkKernel compiles e over the driver table and requires every
// row's value, over contiguous runs and over gathered rows, to equal
// the row-at-a-time Eval's.
func checkKernel(t *testing.T, pl *Pipeline, b *Bound, e *Expr) {
	t.Helper()
	fc := &fastCompiler{pl: pl, b: b}
	k := fc.kernel(fc.expr(e))
	w := &fastWorker{scratch: scratchBufs(fc.nbufs)}
	n := pl.Tables[0].Rows
	out := make([]int64, fastChunk)
	for lo := 0; lo < n; lo += fastChunk {
		vals := out[:min(fastChunk, n-lo)]
		k(w, nil, lo, vals)
		for i, v := range vals {
			if want := e.Eval(b, []int{lo + i}); v != want {
				t.Fatalf("%s, run row %d: got %d, want %d", pl.ExprString(e), lo+i, v, want)
			}
		}
	}
	var rows []int32
	for r := n - 1; r >= 0; r -= 3 {
		rows = append(rows, int32(r))
	}
	vals := out[:len(rows)]
	k(w, rows, 0, vals)
	for i, v := range vals {
		if want := e.Eval(b, []int{int(rows[i])}); v != want {
			t.Fatalf("%s, gathered row %d: got %d, want %d", pl.ExprString(e), rows[i], v, want)
		}
	}
}

// TestFusedKernelsMatchEval runs every compile path of the expression
// compiler against Eval at all four host widths: affine chains with
// wrapping constants, fused pairs and quotients, constant divisors of
// both signs through the unsigned and the signed division, and the
// general kernels beside them.
func TestFusedKernelsMatchEval(t *testing.T) {
	const a, b, f = 0, 1, 2
	col := func(c int) *Expr { return ColExpr(0, c) }
	k := ConstExpr
	exprs := []*Expr{
		Bin(OpAdd, Bin(OpMul, Bin(OpAdd, col(a), k(1<<62)), k(math.MinInt64)), k(-7)),
		Bin(OpSub, k(5), col(a)),
		Bin(OpMul, col(a), k(-1)),
		Bin(OpMul, Bin(OpMul, col(a), k(1<<62)), k(4)), // wraps to the constant 0
		Bin(OpSub, Bin(OpMul, k(-1<<62), col(b)), k(math.MaxInt64)),
		Bin(OpMul, Bin(OpSub, k(math.MinInt64), col(a)), k(3)),
		Bin(OpDiv, Bin(OpMul, Bin(OpAdd, col(a), k(3)), Bin(OpSub, k(7), col(b))), k(100)),
		Bin(OpDiv, Bin(OpMul, Bin(OpAdd, col(a), k(3)), Bin(OpSub, k(300), col(b))), k(100)),
		Bin(OpMul, col(a), Bin(OpSub, k(100), col(b))),
		Bin(OpAdd, Bin(OpMul, col(a), k(3)), Bin(OpMul, col(b), k(-5))),
		Bin(OpSub, col(a), col(a)),
		Bin(OpMul, col(a), col(a)),
		Bin(OpDiv, Bin(OpSub, col(a), k(2)), Bin(OpAdd, col(b), k(-3))),
		Bin(OpDiv, col(a), col(f)), // f = 0 divides by zero
		Bin(OpDiv, k(1000), col(b)),
		Bin(OpMul, Bin(OpAdd, Bin(OpMul, col(a), col(b)), col(f)), k(3)),
		Bin(OpSub, k(9), Bin(OpDiv, Bin(OpMul, col(a), col(b)), Bin(OpAdd, col(f), col(a)))),
		Bin(OpDiv, Bin(OpDiv, col(a), col(b)), k(7)),
		Bin(OpDiv, Bin(OpAdd, Bin(OpMul, col(a), col(b)), k(5)), k(-9)),
	}
	for d := int64(2); d <= 300; d++ {
		for _, dv := range []int64{d, -d} {
			exprs = append(exprs, Bin(OpDiv, col(a), k(dv)), Bin(OpDiv, Bin(OpMul, col(a), col(b)), k(dv)))
		}
	}
	for _, d := range []int64{1, -1, 0, math.MinInt64, math.MaxInt64, 1 << 31} {
		exprs = append(exprs, Bin(OpDiv, col(a), k(d)), Bin(OpDiv, Bin(OpAdd, col(a), col(b)), k(d)))
	}
	for w := uint8(0); w < 4; w++ {
		pl, bound := exprFixture(w)
		for _, e := range exprs {
			checkKernel(t, pl, bound, e)
		}
	}
}

// TestUnsignedDivProof pins which dividends divide by the unsigned
// multiply-shift: exactly those whose every value provably lies in
// [0, 2³²), with any bound that overflows refused. Each case's values
// must match Eval either way.
func TestUnsignedDivProof(t *testing.T) {
	x, y := ColExpr(0, 0), ColExpr(0, 1)
	for _, tc := range []struct {
		name     string
		xs, ys   []int64
		dividend *Expr
		fast     bool
	}{
		{"column ending at 2^32-1", []int64{0, 5, 1<<32 - 1}, []int64{0}, x, true},
		{"column ending at 2^32", []int64{0, 5, 1 << 32}, []int64{0}, x, false},
		{"negative lower bound", []int64{-1, 5, 100}, []int64{0}, x, false},
		{"affine map into range", []int64{10, 1<<32 + 9}, []int64{0}, Bin(OpSub, x, ConstExpr(10)), true},
		{"bound overflows", []int64{0, 1 << 62}, []int64{0}, Bin(OpMul, x, ConstExpr(4)), false},
		{"product ending at 2^32-1", []int64{0, 65535}, []int64{1, 65537}, Bin(OpMul, x, y), true},
		{"product ending at 2^32", []int64{0, 65536}, []int64{1, 65536}, Bin(OpMul, x, y), false},
		{"product bound overflows", []int64{0, 1 << 40}, []int64{0, 1 << 40}, Bin(OpMul, x, y), false},
		{"difference below zero", []int64{3, 9}, []int64{0, 4}, Bin(OpSub, x, y), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := max(len(tc.xs), len(tc.ys))
			xs, ys := make([]int64, n), make([]int64, n)
			for i := range xs {
				xs[i], ys[i] = tc.xs[min(i, len(tc.xs)-1)], tc.ys[min(i, len(tc.ys)-1)]
			}
			tr, b := fastFixture(n, fastCol{name: "x", i64: xs}, fastCol{name: "y", i64: ys})
			pl := &Pipeline{Tables: []TableRef{tr}}
			fc := &fastCompiler{pl: pl, b: b}
			if _, ok := fc.unsignedDiv(fc.expr(tc.dividend), 3); ok != tc.fast {
				t.Errorf("unsigned division = %v, want %v", ok, tc.fast)
			}
			checkKernel(t, pl, b, Bin(OpDiv, tc.dividend, ConstExpr(3)))
		})
	}
}

// TestDivU32 checks the unsigned reciprocal against hardware division
// over [0, 2³²) at a stride plus each divisor's edges, for every
// divisor from 2 to 2¹⁶ and for 2ᵏ and 2ᵏ±1, and pins the divisors it
// must refuse.
func TestDivU32(t *testing.T) {
	var divisors []int64
	for d := int64(2); d <= 1<<16; d++ {
		divisors = append(divisors, d)
	}
	for k := 2; k < 31; k++ {
		divisors = append(divisors, 1<<k-1, 1<<k, 1<<k+1)
	}
	divisors = append(divisors, 1<<31-1)
	for _, d := range divisors {
		m, ok := divU32(d)
		if !ok {
			t.Fatalf("divU32(%d) refused", d)
		}
		ud := uint64(d)
		top := (1<<32 - 1) / ud * ud
		edges := []uint64{0, 1, ud - 1, ud, ud + 1, 2*ud - 1, top - 1, top, 1<<32 - 2, 1<<32 - 1}
		for n := uint64(0); n < 1<<32; n += 4_194_319 {
			edges = append(edges, n)
		}
		for _, n := range edges {
			if n >= 1<<32 {
				continue
			}
			if got, _ := bits.Mul64(n, m); got != n/ud {
				t.Fatalf("divU32(%d): %d/%d = %d, got %d (m=%d)", d, n, d, n/ud, got, m)
			}
		}
	}
	for _, d := range []int64{1, 0, -3, 1 << 31, math.MinInt64, math.MaxInt64} {
		if _, ok := divU32(d); ok {
			t.Errorf("divU32(%d) accepted", d)
		}
	}
}
