// fastspan.go is the fast plan's span test over contiguous rows, 64
// rows at a time into a bit mask. The selection path's first filter
// stage expands the most selective test's mask into the selection vector
// every later stage reads; a direct-coded grouping ANDs every test's
// mask and discards the rows whose bit is clear (fastgroup.go).
package relop

import (
	"encoding/binary"
	"math/bits"
)

// Lane constants of the word-at-a-time test: lanes8 and lanes16 put a 1
// in every byte or 2-byte lane, so multiplying replicates a value into
// each lane; top8 and top16 are the lanes' top bits (t); pack8 and pack16
// gather those top bits, lane i to bit i, into the word's top byte or
// nibble with one multiply (each lane's bit lands on its own column of
// the product, so no two partial products meet and nothing carries).
const (
	lanes8  = 0x0101010101010101
	top8    = lanes8 << 7
	pack8   = 0x0002040810204081 // 2^(7k), k = 0…7
	lanes16 = 0x0001000100010001
	top16   = lanes16 << 15
	pack16  = 0x0000200040008001 // 2^(15k), k = 0…3
)

// firstSpan scans a span test over the contiguous rows [lo, hi): per
// 64-row block its mask kernel's passing rows, expanded to row ids by
// expandMask. out must hold hi − lo rounded up to 64 entries, which a
// chunk's selection buffer does.
func firstSpan(mask func(r, e int) uint64) rangeSelKernel {
	return func(lo, hi int32, out []int32) []int32 {
		n := 0
		for r := lo; r < hi; r += 64 {
			n = expandMask(mask(int(r), int(min(r+64, hi))), r, out, n)
		}
		return out[:n]
	}
}

// spanMask returns c's mask kernel: bit j of mask(r, e) is set when row
// r + j passes, for the 0 < e − r ≤ 64 rows from r. Byte and 2-byte
// columns may test a word of rows at once (laneMask); other columns
// test row by row (spanBits).
func (v hostCol[T]) spanMask(c spanCond) func(r, e int) uint64 {
	lo, w, flip := c.base+c.a, c.s1-c.a, -uint64(c.neg)
	scalar := func(r, e int) uint64 { return spanBits(v[r:e], lo, w, flip) }
	if m := laneMask(c, scalar); m != nil {
		return m
	}
	return scalar
}

// laneMask is the mask kernel of a byte or 2-byte column whose rebased
// domain stays below its lanes' top bit: two 8-byte words of 8 or 4 rows
// per step, each tested at once (laneTest) and its lanes' bits packed
// into the mask's top byte or nibble as the earlier words' shift down;
// the block's tail goes to tail. It is nil for any other column.
func laneMask(c spanCond, tail func(r, e int) uint64) func(r, e int) uint64 {
	switch v := c.v.(type) {
	case hostCol[uint8]:
		if c.top >= 1<<7 {
			return nil
		}
		k1, k2, flip := laneBounds(c, lanes8, top8)
		return func(r, e int) uint64 {
			if e-r < 64 {
				return tail(r, e)
			}
			var m uint64
			for w := v[r : r+64]; len(w) >= 16; w = w[16:] {
				x, y := binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[8:16])
				m = m>>16 | laneTest(x, k1, k2, top8)*pack8>>56<<48 | laneTest(y, k1, k2, top8)*pack8&(0xff<<56)
			}
			return m ^ flip
		}
	case hostCol[uint16]:
		if c.top >= 1<<15 {
			return nil
		}
		k1, k2, flip := laneBounds(c, lanes16, top16)
		return func(r, e int) uint64 {
			if e-r < 64 {
				return tail(r, e)
			}
			var m uint64
			for w := v[r : r+64]; len(w) >= 8; w = w[8:] {
				// The full slice expression lets each four loads
				// combine into one 8-byte load.
				q := w[:8:8]
				x := uint64(q[0]) | uint64(q[1])<<16 | uint64(q[2])<<32 | uint64(q[3])<<48
				y := uint64(q[4]) | uint64(q[5])<<16 | uint64(q[6])<<32 | uint64(q[7])<<48
				m = m>>8 | laneTest(x, k1, k2, top16)*pack16>>60<<56 | laneTest(y, k1, k2, top16)*pack16&(0xf<<60)
			}
			return m ^ flip
		}
	}
	return nil
}

// laneBounds folds c's rebasing and bounds into laneTest's addends for
// lanes whose ones and top bits are given, and returns flip, the mask
// that negates a block's bits for a negated span.
func laneBounds(c spanCond, ones, top uint64) (k1, k2, flip uint64) {
	b := c.base * ones
	return top - b - c.a*ones, top - b - c.s1*ones, -uint64(c.neg)
}

// laneTest is the span test on every lane of x at once, its result in
// the lanes' top bits top. Each lane holds a value whose rebased d lies
// below the top bit t, and a < t, s1 ≤ t, so in every lane
// d + t − a and d + t − s1 lie in [0, 2t): k1 = t − base − a and
// k2 = t − base − s1, replicated per lane with wrapping arithmetic, add
// to x as those exact lane values, no lane borrowing from or carrying
// into the next. The top bit of d + t − a is set exactly when d ≥ a,
// and that of d + t − s1 exactly when d ≥ s1.
func laneTest(x, k1, k2, top uint64) uint64 {
	return (x + k1) &^ (x + k2) & top
}

// spanBits is the span test row by row, bit j of the mask for v[j]
// (0 < len(v) ≤ 64). With lo = base + a and w = s1 − a, x − lo wraps to
// d − a for the rebased d = x − base: below w exactly when a ≤ d < s1,
// and at least 2⁶⁴ − 2⁶² when d < a. So each row costs one
// subtraction's borrow, which m + m + borrow shifts into the mask as a
// single add-with-carry, and no flag-setting compare. flip negates the
// mask.
func spanBits[T hostInt](v []T, lo, w, flip uint64) uint64 {
	var m uint64
	for j := len(v) - 1; j >= 0; j-- {
		_, in := bits.Sub64(uint64(v[j])-lo, w, 0)
		m, _ = bits.Add64(m, m, in)
	}
	return m ^ flip>>(64-len(v))
}

// selBytes lists each byte value's set bits, lowest first, two to a
// word: bit positions 2k and 2k + 1 of the list in entry k's low and
// high halves, the entries past the list 0.
var selBytes = func() (t [256][4]uint64) {
	for b := range t {
		n := 0
		for j := range 8 {
			if b>>j&1 != 0 {
				t[b][n/2] |= uint64(j) << (32 * (n & 1))
				n++
			}
		}
	}
	return t
}()

// expandMask appends to out[:n] the row r + j of every set bit j of m
// and returns the new length. Each byte of m adds its first row to both
// halves of its four selBytes words at once — row ids stay below 2³¹,
// so the low half never carries into the high one — stores them as
// eight entries, two to a store, and advances n by its population
// count: no branch depends on the data, and the stores past n are
// overwritten later or left beyond the returned length. out must
// therefore hold n + 64 entries.
func expandMask(m uint64, r int32, out []int32, n int) int {
	const both = 1 | 1<<32
	rows := uint64(uint32(r)) * both
	for range 8 {
		b := uint8(m)
		t := &selBytes[b]
		o := out[n : n+8 : n+8]
		p0, p1, p2, p3 := t[0]+rows, t[1]+rows, t[2]+rows, t[3]+rows
		o[0], o[1], o[2], o[3] = int32(p0), int32(p0>>32), int32(p1), int32(p1>>32)
		o[4], o[5], o[6], o[7] = int32(p2), int32(p2>>32), int32(p3), int32(p3>>32)
		n += bits.OnesCount8(b)
		m >>= 8
		rows += 8 * both
	}
	return n
}
