// fastgroup.go is the fast plan's direct-coded grouping. When every
// group key is a bare column whose proven range is small, a row's
// group is a number computed from its key values — no hashing, no
// probing, no key compare:
//
//	code = Σ (kᵢ − minᵢ)·strideᵢ,   strideᵢ = Π_{j<i} spanⱼ
//
// and each aggregate is a table indexed by code. One more code, the
// discard code, absorbs rows the filter rejects. A filter made only of
// span tests therefore never builds a selection vector: a chunk
// computes one code vector over its contiguous rows, the span tests'
// masks (fastspan.go), ANDed per 64-row block, send the rows whose bit
// is clear to the discard code, and every aggregate folds
// column-at-a-time. Kernels are total (x/0 = 0, arithmetic
// wraps), so evaluating a rejected row is harmless; its value lands in
// the discard slot, which no output reads. Any other filter, and any
// join, resolves codes through the selection vector instead. A key may
// then be a bare column of any pipeline table: a joined table's key
// reads the row its table's row vector names for each tuple, so
// join_oc's c_nationkey codes like a driver column.
//
// Workers' code tables merge element-wise into one Partial, so
// FinalizeProbed receives a single partial and skips its merge map.
package relop

import "math/bits"

// codeSpace caps a direct-coded grouping: the product of the key spans
// plus the discard code must fit in it. It bounds a worker's table at
// 512 KiB per accumulator, what the two-byte-key grouping always paid;
// wider domains hash.
const codeSpace = 1 << 16

// laneCodes is the largest code table whose slots interleave over four
// lanes (slot = code·4 + row&3). A table this small puts consecutive
// rows on a handful of slots, where each add waits on the store before
// it; lanes break that chain through one address, and at 256 codes four
// lanes of one accumulator still take only 8 KiB of L1.
const (
	laneCodes = 256
	laneBits  = 2
)

// codeKey is one key column of a direct-coded grouping.
type codeKey struct {
	v      intCol
	tab    int    // the column's pipeline table
	base   uint64 // uint64(min): the rebasing offset
	span   int64  // max − min + 1
	stride int32  // slot stride, lanes included
}

// codeGroups is a compiled direct-coded grouping.
type codeGroups struct {
	keys  []codeKey
	codes int   // codes 0..codes−1 name key tuples: the spans' product
	size  int   // slots per table, lanes included: a power of two
	lanes int32 // lane mask: 3 with four lanes, 0 without
	// discard ORed into any row's slot yields a discard slot: every code
	// bit set, the row's lane kept.
	discard int32
	// chunked folds without a selection vector; masks are then every
	// filter conjunct's stateless mask kernel (spanMask).
	chunked bool
	masks   []func(r, e int) uint64
}

// codeGroups returns the direct-coded form of the pipeline's grouping,
// or nil when a key is not a bare column or the spans' product leaves
// no room for the discard code in codeSpace. A joined table's key
// codes over its whole column's range, filtered rows included.
func (fc *fastCompiler) codeGroups() *codeGroups {
	g := &codeGroups{}
	product := uint64(1)
	for _, e := range fc.pl.GroupBy {
		if e.Op != OpCol {
			return nil
		}
		c := fc.b.Tables[e.Tab][e.Col].V
		mn, mx, ok := c.Extremes()
		if !ok {
			return nil // an empty column has no range to code
		}
		// mx − mn is exact in uint64 for any int64 pair, ±2⁶³ included.
		span := uint64(mx) - uint64(mn)
		if span >= codeSpace {
			return nil
		}
		g.keys = append(g.keys, codeKey{v: bareCol(c), tab: e.Tab, base: uint64(mn),
			span: int64(span + 1), stride: int32(product)})
		product *= span + 1 // both factors < 2^17: no overflow
		if product >= codeSpace {
			return nil
		}
	}
	g.codes = int(product)
	slots := 1 << bits.Len(uint(product)) // the least power of two > product
	shift := 0
	if slots <= laneCodes {
		shift = laneBits
	}
	for k := range g.keys {
		g.keys[k].stride <<= shift
	}
	g.size = slots << shift
	g.lanes = 1<<shift - 1
	g.discard = int32(slots-1) << shift
	return g
}

// initCodeTables gives a worker its code tables: a row count per slot
// and one seeded table per aggregate except COUNT, which reads the row
// counts.
func (w *fastWorker) initCodeTables() {
	p := w.p
	w.cnt = make([]int64, p.codes.size)
	w.acc = make([][]int64, len(p.aggs))
	for ai, a := range p.aggs {
		if a.kind == AggCount {
			continue
		}
		t := make([]int64, p.codes.size)
		if a.seed != 0 {
			for i := range t {
				t[i] = a.seed
			}
		}
		w.acc[ai] = t
	}
}

// runCoded scans driver rows [start, end) chunk by chunk with no
// selection vector: the chunk's code vector, the discard code ORed into
// the rows the span tests reject, then each aggregate folded over it.
func (w *fastWorker) runCoded(start, end int) {
	g := w.p.codes
	for lo := start; lo < end; lo += fastChunk {
		hi := min(lo+fastChunk, end)
		codes := w.slots[:hi-lo]
		keys := g.keys
		if len(keys) == 2 {
			// Two byte keys, the common flag/status grouping: one pass.
			k0, ok0 := keys[0].v.(hostCol[uint8])
			k1, ok1 := keys[1].v.(hostCol[uint8])
			if ok0 && ok1 {
				keyCodes2(codes, k0[lo:hi], k1[lo:hi], keys[0], keys[1], g.lanes)
				keys = nil
			}
		}
		for ki, k := range keys {
			lanes := int32(-1) // every key after the first adds to the codes
			if ki == 0 {
				lanes = g.lanes
			}
			k.v.keyCodes(codes, lo, hi, k, lanes)
		}
		for r := lo; r < hi && g.masks != nil; r += 64 {
			g.discardBlock(codes[r-lo:], r, min(r+64, hi))
		}
		w.foldCoded(codes, lo, hi)
	}
}

// discardBlock ORs the discard code into each row of the block
// [r, e) (0 < e − r ≤ 64) whose bit in the ANDed span masks is clear.
// blk is the worker's fastChunk-long code buffer from the block's first
// row on, so it has room for 64 codes: blocks start at multiples of 64
// into the chunk, and fastChunk is a multiple of 64 (checked below). A
// chunk's tail block also marks the slots past e, which no fold reads.
func (g *codeGroups) discardBlock(blk []int32, r, e int) {
	keep := ^uint64(0)
	for _, m := range g.masks {
		keep &= m(r, e)
	}
	rej, d := ^keep, g.discard
	blk = blk[:64]
	for ; rej != 0; rej &= rej - 1 {
		blk[bits.TrailingZeros64(rej)&63] |= d
	}
}

// fastChunk must be a multiple of 64 for discardBlock's 64-code view of
// a chunk's last block to stay inside the code buffer; any other value
// makes this constant negative and the package fail to compile.
const _ uint = -(fastChunk % 64)

// keyCodes adds rows [lo, hi) of one key column to a chunk's codes;
// with lanes ≥ 0 (the first key) it sets them instead, lane bits
// included.
func (c hostCol[T]) keyCodes(codes []int32, lo, hi int, k codeKey, lanes int32) {
	v := c[lo:hi]
	codes = codes[:len(v)]
	base, stride := k.base, k.stride
	if lanes >= 0 {
		for i, x := range v {
			codes[i] = int32(i)&lanes + int32(uint64(x)-base)*stride
		}
		return
	}
	for i, x := range v {
		codes[i] += int32(uint64(x)-base) * stride
	}
}

// keyCodes2 sets a chunk's codes from two byte key columns at once, out
// of line: inlined into runCoded, its loop index spilled to the stack.
//
//go:noinline
func keyCodes2(codes []int32, v0, v1 []byte, k0, k1 codeKey, lanes int32) {
	codes, v1 = codes[:len(v0)], v1[:len(v0)]
	s0, s1 := k0.stride, k1.stride
	off := -int32(k0.base)*s0 - int32(k1.base)*s1 // wraps as the codes do
	for i, x := range v0 {
		codes[i] = int32(i)&lanes + int32(x)*s0 + int32(v1[i])*s1 + off
	}
}

// foldCoded folds one chunk's rows [lo, hi) into the code tables.
func (w *fastWorker) foldCoded(codes []int32, lo, hi int) {
	countCodes(w.cnt, codes)
	for ai := range w.p.aggs {
		a := &w.p.aggs[ai]
		switch {
		case a.kind == AggCount:
		case a.v != nil:
			a.v.foldCodes(a.kind, w.acc[ai], codes, lo, hi)
		default:
			vals := w.val[:hi-lo]
			a.arg(w, nil, lo, vals)
			foldCodes(a.kind, w.acc[ai], codes, vals)
		}
	}
}

// codeSlots resolves selected rows to code slots by gathering the key
// columns: a driver key through sel, a joined table's key through that
// table's row vector rv[tab]. No row is rejected here, so no slot is a
// discard slot.
func (g *codeGroups) codeSlots(rv [][]int32, sel, slots []int32) {
	for i := range slots {
		slots[i] = int32(i) & g.lanes
	}
	for _, k := range g.keys {
		rows := sel
		if k.tab != 0 {
			rows = rv[k.tab][:len(sel)]
		}
		k.v.gatherCodes(slots, rows, k)
	}
}

func (v hostCol[T]) gatherCodes(slots, sel []int32, k codeKey) {
	slots = slots[:len(sel)]
	base, stride := k.base, k.stride
	for i, r := range sel {
		slots[i] += int32(uint64(v[r])-base) * stride
	}
}

// countCodes counts rows per slot. Slots index a power-of-two table, so
// masking proves every index in range.
func countCodes(cnt []int64, codes []int32) {
	if len(cnt) == 0 {
		return
	}
	m := len(cnt) - 1
	for _, c := range codes {
		cnt[int(c)&m]++
	}
}

// foldCodes folds a bare column's rows [lo, hi) into a code-indexed
// table.
func (v hostCol[T]) foldCodes(kind AggKind, acc []int64, codes []int32, lo, hi int) {
	foldCodes(kind, acc, codes, v[lo:hi])
}

// foldCodes folds contiguous values into a code-indexed table (COUNT
// reads the row counts instead).
func foldCodes[T hostInt](kind AggKind, acc []int64, codes []int32, v []T) {
	if len(acc) == 0 {
		return
	}
	m := len(acc) - 1
	codes = codes[:len(v)]
	switch kind {
	case AggSum:
		for i, x := range v {
			acc[int(codes[i])&m] += int64(x)
		}
	case AggMin:
		for i, x := range v {
			j := int(codes[i]) & m
			acc[j] = min(acc[j], int64(x))
		}
	case AggMax:
		for i, x := range v {
			j := int(codes[i]) & m
			acc[j] = max(acc[j], int64(x))
		}
	}
}

// codePartial merges the workers' code tables element-wise into one
// Partial: lanes and workers combine by aggregate kind, codes no row
// reached are dropped, and the rest decode back into key tuples. It
// then resets every slot it read and the discard slots, so the workers
// go back to the pool clean.
func (p *FastPlan) codePartial(ws []Worker) *Partial {
	g := p.codes
	live := make([]*fastWorker, len(ws))
	for t, w := range ws {
		live[t] = w.(*fastWorker)
	}
	lanes := int(g.lanes) + 1
	shift := bits.TrailingZeros(uint(lanes))
	part := &Partial{Aggs: make([][]int64, len(p.aggs))}
	var flat []int64
	var present []int
	for c := 0; c < g.codes; c++ {
		s := c << shift
		var n int64
		for _, w := range live {
			for _, x := range w.cnt[s : s+lanes] {
				n += x
			}
		}
		if n == 0 {
			continue
		}
		present = append(present, s)
		part.Matched += n
		x := int64(c)
		for _, k := range g.keys {
			flat = append(flat, int64(k.base+uint64(x%k.span)))
			x /= k.span
		}
		for ai := range p.aggs {
			a := &p.aggs[ai]
			v := n
			if a.kind != AggCount {
				v = a.seed
				for _, w := range live {
					for _, y := range w.acc[ai][s : s+lanes] {
						v = foldOne(a.kind, v, y)
					}
				}
			}
			part.Aggs[ai] = append(part.Aggs[ai], v)
		}
	}
	width := len(g.keys)
	part.Tuples = make([][]int64, len(present))
	for i := range part.Tuples {
		part.Tuples[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	present = append(present, int(g.discard))
	for _, w := range live {
		for _, s := range present {
			clear(w.cnt[s : s+lanes])
			for ai := range p.aggs {
				if t := w.acc[ai]; t != nil {
					for l := range lanes {
						t[s+l] = p.aggs[ai].seed
					}
				}
			}
		}
	}
	return part
}

// foldOne folds one value into an accumulator (COUNT partials add).
func foldOne(kind AggKind, acc, v int64) int64 {
	switch kind {
	case AggMin:
		return min(acc, v)
	case AggMax:
		return max(acc, v)
	}
	return acc + v
}
