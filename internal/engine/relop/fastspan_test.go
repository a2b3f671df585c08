package relop

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// spanRule is the span test as spanCond defines it, one value at a time.
func spanRule(x, base, a, s1 uint64, neg int) bool {
	d := x - base
	return (a <= d && d < s1) != (neg == 1)
}

// checkSpan compares c's mask kernel, block by block, and its first
// stage, chunk by chunk, with spanRule over every row of v, whose values
// must lie in c's domain [base, base+top].
func checkSpan[T hostInt](t *testing.T, v hostCol[T], c spanCond, out []int32) {
	t.Helper()
	c.v = v
	mask := v.spanMask(c)
	for r := 0; r < len(v); r += 64 {
		e := min(r+64, len(v))
		m := mask(r, e)
		for j := r; j < e; j++ {
			if got, want := m>>(j-r)&1 == 1, spanRule(uint64(v[j]), c.base, c.a, c.s1, c.neg); got != want {
				t.Fatalf("%T base=%d top=%d a=%d s1=%d neg=%d: row %d (x=%d) got %v, want %v",
					v, c.base, c.top, c.a, c.s1, c.neg, j, v[j], got, want)
			}
		}
		if m>>(e-r-1)>>1 != 0 {
			t.Fatalf("%T a=%d s1=%d neg=%d: block at %d sets bits past its %d rows: %#x", v, c.a, c.s1, c.neg, r, e-r, m)
		}
	}
	stage := firstSpan(mask)
	for lo := 0; lo < len(v); lo += fastChunk {
		hi := min(lo+fastChunk, len(v))
		var want []int32
		for j := lo; j < hi; j++ {
			if spanRule(uint64(v[j]), c.base, c.a, c.s1, c.neg) {
				want = append(want, int32(j))
			}
		}
		if got := stage(int32(lo), int32(hi), out); !slices.Equal(got, want) {
			t.Fatalf("%T a=%d s1=%d neg=%d: rows [%d, %d) selected %v, want %v", v, c.a, c.s1, c.neg, lo, hi, got, want)
		}
	}
}

// spanColumn fills n rows with values in [base, base+top], shuffled:
// every value of the domain while n allows, random ones past it, and
// the domain's two extremes in any case.
func spanColumn[T hostInt](rng *rand.Rand, n int, base, top uint64) hostCol[T] {
	v := make(hostCol[T], n)
	for i := range v {
		d := uint64(i)
		if d > top {
			d = rng.Uint64() % (top + 1)
		}
		v[i] = T(base + d)
	}
	rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	if uint64(n) <= top {
		v[0], v[n-1] = T(base), T(base+top)
	}
	return v
}

// TestSpanMaskMatchesScalar checks the first filter stage — the
// word-at-a-time lane test, the row-by-row fallback and the expansion to
// row ids — against spanRule: every (x, a, s1) of byte domains below,
// at and past the lanes' top bit; 2-byte columns at every value against
// edge and random bounds; 4- and 8-byte columns; negated spans; and
// tables ending 1 to 63 rows past a multiple of 64, down to one row.
func TestSpanMaskMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	out := make([]int32, fastChunk)
	// Byte lanes: domains whose top sits below the lane's top bit (the
	// lane test, rebased from 0 and from above 0) and at it (the
	// fallback).
	for _, d := range []struct{ base, top uint64 }{{0, 127}, {128, 127}, {100, 127}, {0, 128}, {0, 255}, {250, 5}} {
		v := spanColumn[uint8](rng, int(d.top)+1+3*64+37, d.base, d.top)
		for a := uint64(0); a <= d.top; a++ {
			for s1 := a + 1; s1 <= d.top+1; s1++ {
				for neg := range 2 {
					checkSpan(t, v, spanCond{base: d.base, top: d.top, a: a, s1: s1, neg: neg}, out)
				}
			}
		}
	}

	// 2-byte lanes: every value of the domain against edge bounds and
	// random ones, rebased domains at the lane's top bit and one past.
	edges := []uint64{0, 1, 255, 256, 32767, 32768, 65534, 65535}
	for _, d := range []struct{ base, top uint64 }{{0, 32767}, {32768, 32767}, {0, 32768}, {0, 65535}, {1000, 2525}} {
		v := spanColumn[uint16](rng, int(d.top)+1+17, d.base, d.top)
		bounds := append([]uint64(nil), edges...)
		for range 6 {
			bounds = append(bounds, rng.Uint64()%(d.top+1))
		}
		for _, a := range bounds {
			for _, hi := range bounds {
				if a > d.top || hi < a || hi > d.top {
					continue
				}
				for neg := range 2 {
					checkSpan(t, v, spanCond{base: d.base, top: d.top, a: a, s1: hi + 1, neg: neg}, out)
				}
			}
		}
	}

	// 4- and 8-byte columns take the row-by-row test, at their widths'
	// edges, below zero and across it.
	for _, d := range []struct{ base, top uint64 }{{0, math.MaxUint32}, {1 << 31, 1<<31 - 1}, {5, 1 << 20}} {
		v := spanColumn[uint32](rng, 3*fastChunk+41, d.base, d.top)
		for range 40 {
			a := rng.Uint64() % (d.top + 1)
			s1 := a + 1 + rng.Uint64()%(d.top+1-a)
			checkSpan(t, v, spanCond{base: d.base, top: d.top, a: a, s1: s1, neg: rng.Intn(2)}, out)
		}
	}
	for _, d := range []struct{ base, top uint64 }{{3 << 62, 1<<62 - 1}, {math.MaxUint64 - 99, 300}} {
		v := spanColumn[int64](rng, 2*fastChunk+7, d.base, d.top)
		for range 40 {
			a := rng.Uint64() % (d.top + 1)
			s1 := a + 1 + rng.Uint64()%(d.top+1-a)
			checkSpan(t, v, spanCond{base: d.base, top: d.top, a: a, s1: s1, neg: rng.Intn(2)}, out)
		}
	}

	// Tables ending 1 to 63 rows past a multiple of 64, within the
	// first chunk and past it, and a one-row table, at every width.
	lengths := []int{1}
	for tail := 1; tail < 64; tail++ {
		lengths = append(lengths, 3*64+tail, fastChunk+128+tail)
	}
	for i, rows := range lengths {
		c := spanCond{top: 100, a: 20, s1: 71, neg: i & 1}
		checkSpan(t, spanColumn[uint8](rng, rows, 0, 100), c, out)
		checkSpan(t, spanColumn[uint16](rng, rows, 0, 100), c, out)
		checkSpan(t, spanColumn[uint32](rng, rows, 0, 100), c, out)
		checkSpan(t, spanColumn[int64](rng, rows, 0, 100), c, out)
	}
}
