package relop

import (
	"slices"

	"olapmicro/internal/join"
)

// The fast plan's join stage. CompileFast filters every build side and
// indexes it on its key once; Execute only probes, so executions of a
// cached plan never rebuild and concurrent ones share read-only
// indexes. Per chunk, after the driver's staged filters, each join
// evaluates its probe-key kernel over the tuples so far and emits one
// row vector per table for its matches; a joined table's column leaf
// gathers through its table's vector (hostCol.gatherVia), and the
// grouping and fold kernels run unchanged on the result.
//
// An index takes one of three forms. Where the indexed keys span at
// most denseSpan values per indexed row, the slot is key − lo, and
// keys probed in order (a fact table stored in its parent's key order,
// like lineitem under orders) read the index in order:
//   - unique direct, when no two rows share a key: at[s] is slot s's
//     build row + 1, 0 for none, and at[slots] = 0 is a sentinel that
//     every key outside the span clamps to, so a probe is one load and
//     no branch. 4·span/n bytes per indexed row, at most 64.
//   - CSR direct: slot s owns the build rows rows[start[s]:start[s+1]],
//     so duplicate keys are runs and a 1:N join emits every match.
//     4 + 4·span/n bytes per indexed row, at most 68.
//   - hashed, any wider key set: slots are join.Hash buckets, a power of
//     two at least the row count, over the same CSR, and each entry
//     keeps its key for the compare. 12 + 4·buckets/n bytes per indexed
//     row, 16 to 20.

// denseSpan bounds a direct index's key span per indexed row. TPC-H
// order keys use 8 of every 32 values, so orders filtered to a half
// spans about 8 keys per row; 16 keeps such build sides direct, which
// the fast_join workload measured as the faster form.
const denseSpan = 16

// joinIndex is one build side's index (see the file comment).
type joinIndex struct {
	hashed bool
	lo     int64   // direct: the smallest indexed key
	slots  uint64  // direct: the key span; hashed: the bucket count
	at     []int32 // unique direct: slot → build row + 1
	start  []int32 // CSR
	rows   []int32 // CSR
	keys   []int64 // hashed: each entry's key
}

// slot maps a key to its CSR slot; ok is false for a key outside a
// direct index's span. Unsigned wraparound puts every key below lo at
// or past the span, because the span ends at or below MaxInt64.
func (x *joinIndex) slot(k int64) (uint64, bool) {
	if x.hashed {
		return join.Hash(k) & (x.slots - 1), true
	}
	d := uint64(k) - uint64(x.lo)
	return d, d < x.slots
}

// newJoinIndex indexes the build rows ids under keys (parallel slices,
// ids ascending); every run keeps its rows in that order.
func newJoinIndex(ids []int32, keys []int64) *joinIndex {
	n := uint64(len(ids))
	x := &joinIndex{}
	if len(keys) > 0 {
		lo, hi := slices.Min(keys), slices.Max(keys)
		if span := uint64(hi) - uint64(lo); span < denseSpan*n {
			x.lo, x.slots = lo, span+1
		} else {
			x.hashed, x.slots = true, 1
			for x.slots < n {
				x.slots <<= 1
			}
			x.keys = make([]int64, n)
		}
	}
	if !x.hashed && x.fillAt(ids, keys) {
		return x
	}
	x.start = make([]int32, x.slots+1)
	for _, k := range keys {
		s, _ := x.slot(k)
		x.start[s+1]++
	}
	for s := uint64(1); s <= x.slots; s++ {
		x.start[s] += x.start[s-1]
	}
	next := append([]int32(nil), x.start[:x.slots]...)
	x.rows = make([]int32, n)
	for i, k := range keys {
		s, _ := x.slot(k)
		e := next[s]
		next[s]++
		x.rows[e] = ids[i]
		if x.hashed {
			x.keys[e] = k
		}
	}
	return x
}

// fillAt makes a direct index unique when no two of its keys are
// equal, and reports whether it did. Row ids are below MaxInt32 (the
// fast plan refuses larger tables), so row + 1 fits.
func (x *joinIndex) fillAt(ids []int32, keys []int64) bool {
	at := make([]int32, x.slots+1) // at[slots] stays 0: the sentinel
	for i, k := range keys {
		s := uint64(k) - uint64(x.lo)
		if at[s] != 0 {
			return false
		}
		at[s] = ids[i] + 1
	}
	x.at = at
	return true
}

// fastJoin is one compiled join: the probe-key kernel over the tuples
// built so far, the tables those tuples carry, and the build index. A
// probe key that is a bare column of a pipeline table is also kept as
// that column (col, of table keyTab), which a unique index's probe
// reads in its own pass.
type fastJoin struct {
	build  int
	carry  []int
	key    vecKernel
	col    intCol
	keyTab int
	idx    *joinIndex
}

// join compiles join ji of the driver compiler's pipeline: the probe
// key as a kernel over the tables joined before it, and the build side
// filtered and indexed now, once per plan. The build side compiles like
// a driver of its own — its columns are the direct leaves, its filter
// stages into span and selection kernels — and runs on a scratch
// worker.
func (fc *fastCompiler) join(ji int) fastJoin {
	j := fc.pl.Joins[ji]
	fj := fastJoin{build: j.Build, carry: []int{0}, key: fc.kernel(fc.expr(j.ProbeKey))}
	if e := j.ProbeKey; e.Op == OpCol {
		fj.col, fj.keyTab = bareCol(fc.b.Tables[e.Tab][e.Col].V), e.Tab
	}
	for _, prev := range fc.pl.Joins[:ji] {
		fj.carry = append(fj.carry, prev.Build)
	}
	bc := &fastCompiler{pl: fc.pl, b: fc.b, tab: j.Build}
	conds, rest, never := bc.pred(j.BuildFilter)
	filter0, filter := stageSpans(conds, rest)
	if never {
		filter0 = neverMatch
	}
	key := bc.kernel(bc.expr(j.BuildKey))
	w := &fastWorker{selBuf: make([]int32, fastChunk), val: make([]int64, fastChunk), scratch: scratchBufs(bc.nbufs)}
	var ids []int32
	var keys []int64
	for lo, n := 0, fc.pl.Tables[j.Build].Rows; lo < n; lo += fastChunk {
		sel := w.selectChunk(filter0, filter, lo, min(lo+fastChunk, n))
		k := w.val[:len(sel)]
		key(w, sel, 0, k)
		ids = append(ids, sel...)
		keys = append(keys, k...)
	}
	fj.idx = newJoinIndex(ids, keys)
	return fj
}

// joinLevel is a worker's batch of tuples entering join l (or, past the
// last join, the fold): one row vector per pipeline table, plus the
// probe keys, match runs and matched positions of that join. Each level
// owns its buffers, so a flush that recurses mid-batch leaves the
// level's state intact.
type joinLevel struct {
	rv          [][]int32
	keys        []int64
	lo, hi, pos []int32
}

// initJoins allocates the worker's join levels. Level 0's driver vector
// is each chunk's selection, so it owns no buffer.
func (w *fastWorker) initJoins() {
	p := w.p
	w.lv = make([]joinLevel, len(p.joins)+1)
	for l := range w.lv {
		lv := &w.lv[l]
		lv.rv = make([][]int32, len(p.pl.Tables))
		if l > 0 {
			for t := range lv.rv {
				lv.rv[t] = make([]int32, fastChunk)
			}
		}
		if l < len(p.joins) {
			lv.keys = make([]int64, fastChunk)
			lv.lo, lv.hi, lv.pos = make([]int32, fastChunk), make([]int32, fastChunk), make([]int32, fastChunk)
		}
	}
}

// probe joins the n tuples of level ji against join ji and hands the
// matches, at most fastChunk at a time, to the next join or, past the
// last, to the fold.
func (w *fastWorker) probe(ji, n int) {
	p := w.p
	in := &w.lv[ji]
	w.rv = in.rv
	if ji == len(p.joins) {
		w.fold(in.rv[0][:n])
		return
	}
	j := &p.joins[ji]
	x := j.idx
	out := w.lv[ji+1].rv
	if x.at != nil {
		// Emit a row id for every tuple and let the hit advance the
		// cursor, so a miss costs no branch; then carry the matched
		// tuples' row ids table by table. At most n ≤ fastChunk tuples
		// survive, so nothing flushes early.
		var m int
		if j.col != nil {
			m = j.col.probeUnique(x, in.rv[j.keyTab][:n], out[j.build], in.pos)
		} else {
			keys := in.keys[:n]
			j.key(w, in.rv[0][:n], 0, keys)
			m = x.probeKeys(keys, out[j.build], in.pos)
		}
		for _, t := range j.carry {
			src, dst := in.rv[t], out[t]
			for k, i := range in.pos[:m] {
				dst[k] = src[i]
			}
		}
		if m > 0 {
			w.probe(ji+1, m)
		}
		return
	}
	keys, lo, hi := in.keys[:n], in.lo[:n], in.hi[:n]
	j.key(w, in.rv[0][:n], 0, keys)
	// Resolve every run before emitting any: the index loads are
	// independent of each other, so the core overlaps their misses.
	for i, k := range keys {
		lo[i], hi[i] = 0, 0
		if s, ok := x.slot(k); ok {
			lo[i], hi[i] = x.start[s], x.start[s+1]
		}
	}
	m := 0
	for i := range keys {
		for e := lo[i]; e < hi[i]; e++ {
			if x.hashed && x.keys[e] != keys[i] {
				continue
			}
			for _, t := range j.carry {
				out[t][m] = in.rv[t][i]
			}
			out[j.build][m] = x.rows[e]
			if m++; m == fastChunk {
				w.probe(ji+1, m)
				m = 0
			}
		}
	}
	if m > 0 {
		w.probe(ji+1, m)
	}
}

// probeUnique looks up the key v[r] of every listed row r in a unique
// index: tuple i's match, or −1, lands at bout[m] beside pos[m] = i,
// and m advances only on a hit. A key outside the span — below lo, the
// unsigned difference wraps past it — clamps to the sentinel slot.
// It returns the number of hits.
func (v hostCol[T]) probeUnique(x *joinIndex, rows, bout, pos []int32) int {
	at, lo, last := x.at, uint64(x.lo), x.slots
	m := 0
	for i, r := range rows {
		e := at[min(uint64(v[r])-lo, last)]
		bout[m], pos[m] = e-1, int32(i)
		m += int(uint32(-e) >> 31) // e ≥ 0: the sign of −e is e ≠ 0
	}
	return m
}

// probeKeys is probeUnique over evaluated keys.
func (x *joinIndex) probeKeys(keys []int64, bout, pos []int32) int {
	at, lo, last := x.at, uint64(x.lo), x.slots
	m := 0
	for i, k := range keys {
		e := at[min(uint64(k)-lo, last)]
		bout[m], pos[m] = e-1, int32(i)
		m += int(uint32(-e) >> 31)
	}
	return m
}

// gatherVia reads a joined table's column through that table's row
// vector: tuple i of the batch reads row w.rv[t][i].
func (v hostCol[T]) gatherVia(t int) vecKernel {
	return func(w *fastWorker, rows []int32, lo int, out []int64) {
		for i, r := range w.rv[t][:len(out)] {
			out[i] = int64(v[r])
		}
	}
}
