package tectorwise

import (
	"fmt"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
)

// Branch-site identifiers for the generalized SQL pipeline: every
// selection conjunct is its own primitive and therefore its own static
// branch site — the vectorized engine's predictor faces each
// predicate's individual selectivity (Section 4).
const (
	siteSQLFilter = 0x2800 // + conjunct index
	siteSQLBuild  = 0x2880 // + join index
	siteSQLProbe  = 0x28c0 // + 4*join index (LookupProbed uses +1)
	siteSQLGroup  = 0x28f0
)

// loadChunk charges one dense column-chunk load.
func (e *Engine) loadChunk(p *probe.Probe, c relop.Col, start int, cn uint64) {
	if c.ElemBytes() == 1 {
		p.SeqLoad(c.Addr(start), cn, 1)
	} else {
		e.vecLoad(p, c.Addr(start), cn)
	}
}

// prepared is a pipeline resolved against this engine with its build
// phase done and the driver's column sets classified. It is immutable
// once PreparePipeline returns; workers probe it concurrently.
type prepared struct {
	e  *Engine
	pl *relop.Pipeline
	b  *relop.Bound

	builds []relop.BuildState

	conjs     []*relop.Pred
	conjCols  [][][2]int
	probeCols []relop.Col
	aggCols   []relop.Col
	streamAll bool

	pkAlu, pkMul []uint64
	gAlu, gMul   uint64
	aggAlu       []uint64
	aggMul       []uint64

	footprint uint64

	// Precomputed EXPLAIN ANALYZE section names: the chunk loop
	// re-enters each primitive's section thousands of times, so the
	// hooks must cost one nil check (and no allocation) when the probe
	// has sections disabled.
	secSel       []string
	secJoin      []string
	secProbeCols string
	secAggCols   string
	secAgg       string
}

// PreparePipeline validates and resolves an ad-hoc relational pipeline
// and runs its build phase as chunked build scans, charging the events
// to p. The returned fragment is shared: build once, probe in
// parallel (morsel-driven, Section 10).
func (e *Engine) PreparePipeline(p *probe.Probe, as *probe.AddrSpace, pl *relop.Pipeline) (relop.Prepared, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	b, err := relop.Resolve(pl, e.i64, e.i8)
	if err != nil {
		return nil, err
	}
	pr := &prepared{e: e, pl: pl, b: b, footprint: e.costs.Footprint * uint64(1+len(pl.Joins))}
	// The chunked build scans run the same primitive set the probe pass
	// will; charge the footprint to the build probe too (workers set it
	// again on their own probes).
	p.SetFootprint(pr.footprint, 1)

	rows := make([]int, len(pl.Tables))

	// Column sets read downstream of each stage.
	downstream := map[[2]int]bool{}
	for _, g := range pl.GroupBy {
		g.Cols(downstream)
	}
	for _, a := range pl.Aggs {
		if a.Arg != nil {
			a.Arg.Cols(downstream)
		}
	}
	for _, j := range pl.Joins {
		j.ProbeKey.Cols(downstream)
	}

	pr.builds = make([]relop.BuildState, len(pl.Joins))
	for ji, j := range pl.Joins {
		bt := pl.Tables[j.Build]
		bn := bt.Rows
		p.BeginSection(fmt.Sprintf("build[%d] %s", ji, bt.Name))
		ht := join.New(as, fmt.Sprintf("tw.sql.join%d", ji), bn)
		scanned := map[[2]int]bool{}
		j.BuildKey.Cols(scanned)
		j.BuildFilter.Cols(scanned)
		kAlu, kMul := j.BuildKey.OpCounts()
		fAlu, fMul := j.BuildFilter.OpCounts()
		rowOf := make([]int32, 0, bn)
		for start := 0; start < bn; start += e.vec {
			end := start + e.vec
			if end > bn {
				end = bn
			}
			cn := uint64(end - start)
			for _, k := range relop.SortedCols(scanned, j.Build) {
				e.loadChunk(p, b.Tables[k[0]][k[1]], start, cn)
			}
			e.arith(p, cn*(kAlu+fAlu))
			e.mulArith(p, cn*(kMul+fMul))
			e.mulArith(p, cn*2) // hash primitive
			for i := start; i < end; i++ {
				rows[j.Build] = i
				if j.BuildFilter != nil {
					pass := j.BuildFilter.Eval(b, rows)
					p.BranchOp(uint64(siteSQLBuild+ji), pass)
					if !pass {
						continue
					}
				}
				ht.InsertProbed(p, j.BuildKey.Eval(b, rows))
				rowOf = append(rowOf, int32(i))
			}
			e.primOverhead(p, cn)
		}
		var payload []relop.Col
		for _, k := range relop.SortedCols(downstream, j.Build) {
			payload = append(payload, b.Tables[k[0]][k[1]])
		}
		pr.builds[ji] = relop.BuildState{HT: ht, RowOf: rowOf, Payload: payload}
	}
	p.EndSection()

	// Driver column classification: conjunct columns load inside their
	// selection primitives; probe-key columns before the join
	// primitives; aggregation inputs after the joins.
	pr.conjs = pl.Filter.Conjuncts()
	pr.conjCols = make([][][2]int, len(pr.conjs))
	filterSet := map[[2]int]bool{}
	for ci, cj := range pr.conjs {
		set := map[[2]int]bool{}
		cj.Cols(set)
		pr.conjCols[ci] = relop.SortedCols(set, 0)
		for k := range set {
			filterSet[k] = true
		}
	}
	probeSet := map[[2]int]bool{}
	for _, j := range pl.Joins {
		j.ProbeKey.Cols(probeSet)
	}
	for _, k := range relop.SortedCols(probeSet, 0) {
		if !filterSet[k] {
			pr.probeCols = append(pr.probeCols, b.Tables[k[0]][k[1]])
		}
	}
	aggSet := map[[2]int]bool{}
	for _, g := range pl.GroupBy {
		g.Cols(aggSet)
	}
	for _, a := range pl.Aggs {
		if a.Arg != nil {
			a.Arg.Cols(aggSet)
		}
	}
	for _, k := range relop.SortedCols(aggSet, 0) {
		if !filterSet[k] && !probeSet[k] {
			pr.aggCols = append(pr.aggCols, b.Tables[k[0]][k[1]])
		}
	}
	pr.streamAll = pl.Filter == nil || pl.EstSel >= 0.5

	pr.pkAlu = make([]uint64, len(pl.Joins))
	pr.pkMul = make([]uint64, len(pl.Joins))
	for ji, j := range pl.Joins {
		pr.pkAlu[ji], pr.pkMul[ji] = j.ProbeKey.OpCounts()
	}
	for _, g := range pl.GroupBy {
		a, m := g.OpCounts()
		pr.gAlu, pr.gMul = pr.gAlu+a, pr.gMul+m
	}
	pr.aggAlu = make([]uint64, len(pl.Aggs))
	pr.aggMul = make([]uint64, len(pl.Aggs))
	for ai, a := range pl.Aggs {
		if a.Arg != nil {
			pr.aggAlu[ai], pr.aggMul[ai] = a.Arg.OpCounts()
		}
	}

	pr.secSel = make([]string, len(pr.conjs))
	for ci, cj := range pr.conjs {
		pr.secSel[ci] = fmt.Sprintf("select[%d] %s", ci, pl.PredString(cj))
	}
	pr.secJoin = make([]string, len(pl.Joins))
	for ji, j := range pl.Joins {
		pr.secJoin[ji] = fmt.Sprintf("join[%d] probe %s", ji, pl.Tables[j.Build].Name)
	}
	pr.secProbeCols = "gather probe-keys"
	pr.secAggCols = "gather agg-inputs"
	pr.secAgg = "aggregate"
	if len(pl.GroupBy) > 0 {
		pr.secAgg = "hash-aggregate"
	}
	return pr, nil
}

// Rows is the driver-table row count.
func (pr *prepared) Rows() int { return pr.pl.Tables[0].Rows }

// MorselAlign keeps morsel boundaries on vector boundaries so every
// worker's chunks coincide with the serial execution's.
func (pr *prepared) MorselAlign() int { return pr.e.vec }

// worker is one thread's private execution state: selection vectors,
// current-row cursors and aggregate accumulators.
type worker struct {
	pr *prepared
	p  *probe.Probe

	rows    []int
	sel     []int32
	selNext []int32
	agg     *relop.AggState
}

// setRows positions every table's current row for one join match:
// column 0 of the match vectors holds driver rows, column 1+ji the
// rows of join ji's build side. A method rather than a closure inside
// RunMorsel: the morsel loop is the hot path, and a closure literal
// there allocates per chunk (olaplint's hotalloc).
func (w *worker) setRows(matchCols [][]int32, pos int) {
	w.rows[0] = int(matchCols[0][pos])
	for ji := range w.pr.pl.Joins {
		w.rows[w.pr.pl.Joins[ji].Build] = int(matchCols[1+ji][pos])
	}
}

// NewWorker builds one worker's thread-local state; for grouped
// queries that includes a private group table sized from the planner
// estimate, merged with the other workers' tables after the scan.
func (pr *prepared) NewWorker(p *probe.Probe, as *probe.AddrSpace) relop.Worker {
	pl := pr.pl
	p.SetFootprint(pr.footprint, 0)
	return &worker{
		pr:      pr,
		p:       p,
		rows:    make([]int, len(pl.Tables)),
		sel:     make([]int32, pr.e.vec),
		selNext: make([]int32, pr.e.vec),
		agg:     relop.NewAggState(pl, as, "tw.sql.groupby", "tw.sql.agg"),
	}
}

// RunMorsel executes driver rows [start, end) as a sequence of
// vector-sized chunks through the engine's primitives.
//
//olap:allow sectionpair BeginSection is a section switch here; the last section stays open until Sections()
func (w *worker) RunMorsel(start, end int) {
	pr, pl, p, e := w.pr, w.pr.pl, w.p, w.pr.e
	b := pr.b
	w.p.AddTraversals(uint64(end-start+e.vec-1) / uint64(e.vec))

	sel, selNext := w.sel, w.selNext
	for cs := start; cs < end; cs += e.vec {
		ce := cs + e.vec
		if ce > end {
			ce = end
		}
		cn := uint64(ce - cs)
		k := int(cn)
		for i := 0; i < k; i++ {
			sel[i] = int32(cs + i)
		}

		// Selection primitives, one per conjunct.
		for ci, cj := range pr.conjs {
			p.BeginSection(pr.secSel[ci])
			in := uint64(k)
			if ci == 0 {
				for _, c := range pr.conjCols[ci] {
					e.loadChunk(p, b.Tables[c[0]][c[1]], cs, cn)
				}
			} else {
				for _, c := range pr.conjCols[ci] {
					col := b.Tables[c[0]][c[1]]
					for _, idx := range sel[:k] {
						e.gather(p, col.Addr(int(idx)))
					}
					e.gatherOps(p, in)
				}
			}
			alu, mul := cj.OpCounts()
			out := 0
			for _, idx := range sel[:k] {
				w.rows[0] = int(idx)
				pass := cj.Eval(b, w.rows)
				p.BranchOp(uint64(siteSQLFilter+ci), pass)
				if pass {
					selNext[out] = idx
					out++
				}
			}
			e.arith(p, in*alu)
			e.mulArith(p, in*mul)
			sub := ci
			if sub > 2 {
				sub = 2
			}
			e.vecStore(p, e.selR[sub].Base, uint64(out)/2+1)
			e.primOverhead(p, in)
			sel, selNext = selNext, sel
			k = out
		}

		// Probe-key inputs.
		if len(pr.probeCols) > 0 {
			p.BeginSection(pr.secProbeCols)
		}
		for _, c := range pr.probeCols {
			if pr.streamAll {
				e.loadChunk(p, c, cs, cn)
			} else {
				for _, idx := range sel[:k] {
					e.gather(p, c.Addr(int(idx)))
				}
				e.gatherOps(p, uint64(k))
			}
		}

		// Join primitives: hash, probe (following duplicate chains),
		// compact into growable match vectors — matchCols[0] holds
		// driver rows, matchCols[1+ji] the rows of join ji's build.
		matchCols := [][]int32{append(make([]int32, 0, k), sel[:k]...)}
		for ji, j := range pl.Joins {
			p.BeginSection(pr.secJoin[ji])
			in := len(matchCols[0])
			e.mulArith(p, uint64(in)*2)
			e.arith(p, uint64(in)*pr.pkAlu[ji])
			e.mulArith(p, uint64(in)*pr.pkMul[ji])
			bs := &pr.builds[ji]
			site := uint64(siteSQLProbe + 4*ji)
			out := make([][]int32, len(matchCols)+1)
			for pos := 0; pos < in; pos++ {
				w.rows[0] = int(matchCols[0][pos])
				for pj := 0; pj < ji; pj++ {
					w.rows[pl.Joins[pj].Build] = int(matchCols[1+pj][pos])
				}
				key := j.ProbeKey.Eval(b, w.rows)
				for slot := bs.HT.LookupProbed(p, site, key); slot >= 0; slot = bs.HT.LookupNextProbed(p, site, slot, key) {
					br := bs.RowOf[slot]
					w.rows[j.Build] = int(br)
					for _, c := range bs.Payload {
						p.Load(c.Addr(int(br)), c.ElemBytes())
					}
					for ci := range matchCols {
						out[ci] = append(out[ci], matchCols[ci][pos])
					}
					out[len(matchCols)] = append(out[len(matchCols)], br)
				}
			}
			matchCols = out
			e.vecStore(p, e.selR[3].Base, uint64(len(matchCols[0]))/2+1)
			e.primOverhead(p, uint64(in))
		}
		k = len(matchCols[0])

		// Aggregation inputs.
		uk := uint64(k)
		if len(pr.aggCols) > 0 {
			p.BeginSection(pr.secAggCols)
		}
		for _, c := range pr.aggCols {
			if pr.streamAll && len(pl.Joins) == 0 {
				e.loadChunk(p, c, cs, cn)
			} else {
				for pos := 0; pos < k; pos++ {
					e.gather(p, c.Addr(int(matchCols[0][pos])))
				}
				e.gatherOps(p, uk)
			}
		}

		p.BeginSection(pr.secAgg)
		if ag := w.agg; ag.Grouped {
			// Key-hash primitive plus per-chunk hash-group updates.
			e.mulArith(p, uk*2)
			e.arith(p, uk*(pr.gAlu+uint64(len(pl.GroupBy)-1)))
			e.mulArith(p, uk*pr.gMul)
			for pos := 0; pos < k; pos++ {
				w.setRows(matchCols, pos)
				for gi, g := range pl.GroupBy {
					ag.KeyVals[gi] = g.Eval(b, w.rows)
				}
				slot, inserted := ag.Grp.FindOrInsert(p, siteSQLGroup, ag.KeyVals)
				if inserted {
					for ai := range ag.Acc {
						ag.Acc[ai] = append(ag.Acc[ai], 0)
					}
				}
				for ai, a := range pl.Aggs {
					var v int64
					if a.Arg != nil {
						v = a.Arg.Eval(b, w.rows)
					}
					a.Fold(ag.Acc[ai], int(slot), v, inserted)
				}
				// Overflowing slots of an underestimated table model the
				// operator's rehash region (addresses stay in-allocation).
				off := (uint64(slot) % ag.Est) * ag.Stride
				p.Load(ag.AggR.Base+off, ag.Stride)
				p.Store(ag.AggR.Base+off, ag.Stride)
			}
			for ai := range pl.Aggs {
				e.arith(p, uk*(pr.aggAlu[ai]+1))
				e.mulArith(p, uk*pr.aggMul[ai])
				e.vecStore(p, e.vecR[2].Base, uk)
				e.primOverhead(p, uk)
			}
			p.ExecPressure(uk * uint64(len(pl.Aggs)) * 4 / 10)
			e.primOverhead(p, uk*2)
		} else {
			for pos := 0; pos < k; pos++ {
				w.setRows(matchCols, pos)
				first := ag.Matched == 0
				for ai, a := range pl.Aggs {
					var v int64
					if a.Arg != nil {
						v = a.Arg.Eval(b, w.rows)
					}
					a.Fold(ag.Scalar, ai, v, first)
				}
				ag.Matched++
			}
			// One arithmetic primitive per aggregate expression, then
			// the serial reduction (as in the projection's aggregation
			// primitive).
			for ai := range pl.Aggs {
				e.arith(p, uk*(pr.aggAlu[ai]+1))
				e.mulArith(p, uk*pr.aggMul[ai])
				if ai < len(pl.Aggs)-1 {
					e.vecStore(p, e.vecR[2].Base, uk)
				}
				e.primOverhead(p, uk)
			}
			if e.simd {
				p.Dep(uk / e.lanes)
				p.ExecPressure(uk * 4 / 10 / e.lanes)
			} else {
				p.Dep(uk)
				p.ExecPressure(uk * 4 / 10)
			}
		}
	}
	w.sel, w.selNext = sel, selNext
}

// Partial returns the worker's aggregation state for merging.
func (w *worker) Partial() *relop.Partial { return w.agg.Partial() }
