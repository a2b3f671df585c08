package relop

import (
	"math"
	"sort"

	"olapmicro/internal/engine"
	"olapmicro/internal/probe"
)

// siteHaving is the HAVING filter's static branch site. Finalize runs
// once per query, serially, on whichever probe accounts the
// post-aggregation work (the engine's probe, or the parallel
// coordinator's build probe), so both engines share the one site.
const siteHaving = 0x3800

// outRow is one merged group: its key tuple (nil for scalar queries)
// and every aggregate value, hidden HAVING/ORDER BY aggregates
// included.
type outRow struct {
	tuple []int64
	vals  []int64
}

// val reads output column c of the row.
func (r *outRow) val(c OutCol) int64 {
	if c.Key {
		return r.tuple[c.Idx]
	}
	return r.vals[c.Idx]
}

// scalar evaluates one side of a HAVING comparison.
func (r *outRow) scalar(o OutScalar) int64 {
	if o.Const {
		return o.Val
	}
	return r.val(o.Col)
}

// passHaving evaluates the HAVING conjunction for the row.
func (r *outRow) passHaving(hs []OutPred) bool {
	for _, h := range hs {
		if !cmpVals(h.Cmp, r.scalar(h.L), r.scalar(h.R)) {
			return false
		}
	}
	return true
}

// lessRows is the pipeline's total output order: the ORDER BY keys
// first, then the full group-key tuple ascending, then the aggregate
// values. Group tuples are unique, so two distinct rows never compare
// equal — the sort (and any LIMIT cut) is deterministic on every
// engine and at every thread count.
func (pl *Pipeline) lessRows(a, b *outRow) bool {
	for _, o := range pl.OrderBy {
		va, vb := a.val(o.Col), b.val(o.Col)
		if va != vb {
			if o.Desc {
				return va > vb
			}
			return va < vb
		}
	}
	for i := range a.tuple {
		if a.tuple[i] != b.tuple[i] {
			return a.tuple[i] < b.tuple[i]
		}
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			return a.vals[i] < b.vals[i]
		}
	}
	return false
}

// sortCmps estimates the comparison count of ordering n rows to depth
// k (k = 0 or k >= n is a full sort): n·(log2(depth)+1), the shape
// shared by EXPLAIN and the charged finalize events.
func sortCmps(n, k int) int {
	if n <= 1 {
		return 0
	}
	d := n
	if k > 0 && k < n {
		d = k
	}
	return int(float64(n) * (math.Log2(float64(d)) + 1))
}

// topK returns the first k rows of the total order. A small k against
// many rows runs as a bounded max-heap selection (the TopK operator:
// O(n log k), no full materialized sort); otherwise the rows are fully
// sorted. Both paths produce the identical sorted prefix.
func topK(pl *Pipeline, rows []outRow, k int) []outRow {
	full := func(rs []outRow) []outRow {
		sort.Slice(rs, func(i, j int) bool { return pl.lessRows(&rs[i], &rs[j]) })
		return rs
	}
	if 2*k >= len(rows) {
		if k > len(rows) {
			k = len(rows)
		}
		return full(rows)[:k]
	}
	// Max-heap of the k best rows seen: the root is the worst keeper,
	// evicted whenever a better row arrives.
	h := make([]outRow, k)
	copy(h, rows[:k])
	after := func(a, b *outRow) bool { return pl.lessRows(b, a) }
	sift := func(root int) {
		for {
			c := 2*root + 1
			if c >= k {
				return
			}
			if c+1 < k && after(&h[c+1], &h[c]) {
				c++
			}
			if !after(&h[c], &h[root]) {
				return
			}
			h[root], h[c] = h[c], h[root]
			root = c
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for i := k; i < len(rows); i++ {
		if pl.lessRows(&rows[i], &h[0]) {
			h[0] = rows[i]
			sift(0)
		}
	}
	return full(h)
}

// chargeHaving accounts one group's HAVING evaluation: the conjunct
// compares plus the data-dependent branch at the shared site.
func chargeHaving(p *probe.Probe, pl *Pipeline, pass bool) {
	if p == nil || len(pl.Having) == 0 {
		return
	}
	p.ALU(uint64(2 * len(pl.Having)))
	p.BranchOp(siteHaving, pass)
}

// chargeSort accounts the sort/top-k comparison tree over kept rows,
// with the ~50 % mispredict rate of comparison sorting over unsorted
// data (these comparisons have no static site worth modelling — the
// predictor sees them as noise either way).
func chargeSort(p *probe.Probe, pl *Pipeline, kept int) {
	if p == nil || !pl.Ordered() {
		return
	}
	cmps := uint64(sortCmps(kept, pl.Limit))
	keys := uint64(len(pl.OrderBy) + 1)
	p.ALU(cmps * keys)
	p.BranchStatic(cmps, cmps/2)
	p.Dep(cmps / 2)
}

// partialRows lays one partial's groups out as output rows.
func partialRows(pl *Pipeline, pt *Partial) []outRow {
	na := len(pl.Aggs)
	vals := make([]int64, len(pt.Tuples)*na)
	rows := make([]outRow, len(pt.Tuples))
	for s := range rows {
		v := vals[s*na : (s+1)*na]
		for ai := range v {
			v[ai] = pt.Aggs[ai][s]
		}
		rows[s] = outRow{tuple: pt.Tuples[s], vals: v}
	}
	return rows
}

// FinalizeProbed merges worker partials into the pipeline's result and
// runs the post-aggregation operators — HAVING, ORDER BY (total
// order), LIMIT/top-k — charging the serial finalize work to p (nil
// skips the accounting). Result conventions: Sum is the first output
// aggregate summed over the emitted rows; unordered grouped queries
// fold one checksum row of aggregate values per group; ordered queries
// additionally fold each row's output rank, so the checksum pins the
// order itself. Every step is deterministic for any partitioning of
// the driver — 1 worker or 16.
//
//olap:allow sectionpair opens "finalize" as the trailing section; the caller's Sections() closes it
func FinalizeProbed(p *probe.Probe, pl *Pipeline, parts []*Partial) engine.Result {
	if p != nil {
		p.BeginSection("finalize")
	}
	outAggs := pl.outAggs()
	var res engine.Result
	if len(pl.GroupBy) == 0 {
		out := make([]int64, len(pl.Aggs))
		first := true
		for _, pt := range parts {
			if pt == nil || pt.Matched == 0 {
				continue
			}
			for ai, a := range pl.Aggs {
				a.merge(out, ai, pt.Scalar[ai], first)
			}
			first = false
		}
		row := outRow{vals: out}
		pass := row.passHaving(pl.Having)
		chargeHaving(p, pl, pass)
		if !pass {
			return res
		}
		res.Sum = out[0]
		res.Rows = 1
		return res
	}

	// Merge the thread-local group tables with full-tuple identity. A
	// lone partial needs no merge map: every producer groups by the full
	// key tuple, so one table's tuples are already distinct.
	var live []*Partial
	for _, pt := range parts {
		if pt != nil {
			live = append(live, pt)
		}
	}
	var rows []outRow
	if len(live) == 1 {
		rows, live = partialRows(pl, live[0]), nil
	}
	idx := map[string]int{}
	for _, pt := range live {
		for s := range pt.Tuples {
			k := tupleKey(pt.Tuples[s])
			g, ok := idx[k]
			if !ok {
				g = len(rows)
				idx[k] = g
				rows = append(rows, outRow{tuple: pt.Tuples[s], vals: make([]int64, len(pl.Aggs))})
			}
			for ai, a := range pl.Aggs {
				a.merge(rows[g].vals, ai, pt.Aggs[ai][s], !ok)
			}
		}
	}

	if len(pl.Having) > 0 {
		kept := rows[:0]
		for i := range rows {
			pass := rows[i].passHaving(pl.Having)
			chargeHaving(p, pl, pass)
			if pass {
				kept = append(kept, rows[i])
			}
		}
		rows = kept
	}
	chargeSort(p, pl, len(rows))

	if pl.Ordered() {
		k := pl.Limit
		if k <= 0 || k > len(rows) {
			k = len(rows)
		}
		rows = topK(pl, rows, k)
		out := make([]int64, outAggs+1)
		for rank := range rows {
			r := &rows[rank]
			res.Sum += r.vals[0]
			out[0] = int64(rank)
			copy(out[1:], r.vals[:outAggs])
			res.AddRow(out...)
		}
		return res
	}
	for i := range rows {
		res.Sum += rows[i].vals[0]
		res.AddRow(rows[i].vals[:outAggs]...)
	}
	return res
}
