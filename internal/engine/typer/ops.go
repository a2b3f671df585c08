package typer

import (
	"fmt"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
)

// Branch-site identifiers for the generalized SQL pipeline. Each join
// and the filter get their own static site so the predictor sees them
// as distinct branches, like the hardcoded queries' sites.
const (
	siteSQLFilter = iota + 0x1800
	siteSQLGroup
	siteSQLBuild // + 4*joinIndex
	siteSQLProbe // + 4*joinIndex (LookupProbed also uses +1)
)

// prepared is a pipeline resolved against this engine with its build
// phase done. It is immutable once PreparePipeline returns, so any
// number of workers may probe it concurrently.
type prepared struct {
	e  *Engine
	pl *relop.Pipeline
	b  *relop.Bound

	builds []relop.BuildState

	filterCols  []int
	payloadCols []int
	streamAll   bool

	// Pre-tallied micro-op costs per evaluation.
	fAlu, fMul uint64
	pkAlu      []uint64
	pkMul      []uint64
	gAlu, gMul uint64
	aAlu, aMul uint64

	footprint uint64

	// Precomputed EXPLAIN ANALYZE section names, so the per-morsel
	// hooks cost one nil check (and no allocation) when the probe has
	// sections disabled.
	secScan, secLoop string
}

// PreparePipeline validates and resolves an ad-hoc relational pipeline
// and runs its build phase — one fused build scan per join, as the
// compiled engine's hardcoded queries do — charging the build events
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

	mult := uint64(1 + len(pl.Joins))
	if len(pl.GroupBy) > 0 {
		mult++
	}
	pr := &prepared{e: e, pl: pl, b: b, footprint: e.costs.Footprint * mult}
	// The build scans run the same generated code image the probe pass
	// will; charge the footprint to the build probe too (workers set it
	// again on their own probes).
	p.SetFootprint(pr.footprint, 1)

	rows := make([]int, len(pl.Tables))

	// Column sets read downstream of the builds.
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
		n := bt.Rows
		p.BeginSection(fmt.Sprintf("build[%d] %s", ji, bt.Name))
		ht := join.New(as, fmt.Sprintf("ty.sql.join%d", ji), n)
		scanned := map[[2]int]bool{}
		j.BuildKey.Cols(scanned)
		j.BuildFilter.Cols(scanned)
		// Sorted: the scan order of the build columns feeds the cache
		// simulation, so it must not depend on map iteration order.
		for _, k := range relop.SortedCols(scanned, -1) {
			c := b.Tables[k[0]][k[1]]
			p.SeqLoad(c.Base(), uint64(n)*c.ElemBytes(), c.ElemBytes())
		}
		fAlu, fMul := j.BuildFilter.OpCounts()
		kAlu, kMul := j.BuildKey.OpCounts()
		rowOf := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			rows[j.Build] = i
			if j.BuildFilter != nil {
				p.ALU(fAlu)
				p.Mul(fMul)
				pass := j.BuildFilter.Eval(b, rows)
				p.BranchOp(uint64(siteSQLBuild+4*ji), pass)
				if !pass {
					continue
				}
			}
			p.ALU(kAlu)
			p.Mul(kMul)
			ht.InsertProbed(p, j.BuildKey.Eval(b, rows))
			rowOf = append(rowOf, int32(i))
		}
		e.loopTail(p, uint64(n))
		var payload []relop.Col
		// Sorted: payload order fixes the per-match load sequence the
		// probe replays in the hot loop.
		for _, k := range relop.SortedCols(downstream, j.Build) {
			payload = append(payload, b.Tables[k[0]][k[1]])
		}
		pr.builds[ji] = relop.BuildState{HT: ht, RowOf: rowOf, Payload: payload}
	}
	p.EndSection()
	pr.secScan = "scan " + pl.Tables[0].Name
	pr.secLoop = "filter+probe+aggregate (fused)"

	pr.filterCols, pr.payloadCols = pl.DriverCols()
	// Like the hardcoded queries, predicate columns always stream;
	// payload columns stream when most tuples survive (Q1) and are
	// gathered sparsely when the filter is selective (Q6).
	pr.streamAll = pl.Filter == nil || pl.EstSel >= 0.5

	pr.fAlu, pr.fMul = pl.Filter.OpCounts()
	pr.pkAlu = make([]uint64, len(pl.Joins))
	pr.pkMul = make([]uint64, len(pl.Joins))
	for ji, j := range pl.Joins {
		pr.pkAlu[ji], pr.pkMul[ji] = j.ProbeKey.OpCounts()
	}
	for _, g := range pl.GroupBy {
		a, m := g.OpCounts()
		pr.gAlu, pr.gMul = pr.gAlu+a, pr.gMul+m
	}
	for _, a := range pl.Aggs {
		if a.Arg != nil {
			al, m := a.Arg.OpCounts()
			pr.aAlu, pr.aMul = pr.aAlu+al+1, pr.aMul+m
		} else {
			pr.aAlu++
		}
	}
	return pr, nil
}

// Rows is the driver-table row count.
func (pr *prepared) Rows() int { return pr.pl.Tables[0].Rows }

// MorselAlign is 1: the fused loop has no chunk structure to respect.
func (pr *prepared) MorselAlign() int { return 1 }

// worker is one thread's private execution state: its own current-row
// cursor, group table and aggregate accumulators.
type worker struct {
	pr *prepared
	p  *probe.Probe

	rows []int
	agg  *relop.AggState
}

// NewWorker builds one worker's thread-local state: the compiled
// engine's generated code footprint and, for grouped queries, a
// private group table sized from the planner estimate (merged with the
// other workers' tables after the scan).
func (pr *prepared) NewWorker(p *probe.Probe, as *probe.AddrSpace) relop.Worker {
	pl := pr.pl
	p.SetFootprint(pr.footprint, 1)
	return &worker{
		pr:   pr,
		p:    p,
		rows: make([]int, len(pl.Tables)),
		agg:  relop.NewAggState(pl, as, "ty.sql.groupby", "ty.sql.agg"),
	}
}

// aggRow folds the current row combination into the aggregates.
func (w *worker) aggRow() {
	pr, pl, p, ag := w.pr, w.pr.pl, w.p, w.agg
	ag.Matched++
	if ag.Grouped {
		for gi, g := range pl.GroupBy {
			ag.KeyVals[gi] = g.Eval(pr.b, w.rows)
		}
		p.ALU(pr.gAlu + uint64(len(pl.GroupBy)-1))
		p.Mul(pr.gMul + uint64(len(pl.GroupBy)-1))
		slot, inserted := ag.Grp.FindOrInsert(p, siteSQLGroup, ag.KeyVals)
		if inserted {
			for ai := range ag.Acc {
				ag.Acc[ai] = append(ag.Acc[ai], 0)
			}
		}
		for ai, a := range pl.Aggs {
			var v int64
			if a.Arg != nil {
				v = a.Arg.Eval(pr.b, w.rows)
			}
			a.Fold(ag.Acc[ai], int(slot), v, inserted)
		}
		// Aggregate-row update: load/modify/store plus the serial
		// arithmetic chain (decimal-style multiply/divide feeds the
		// accumulate), as in the hardcoded Q1. Overflowing slots of
		// an underestimated table model the operator's in-place
		// rehash region (addresses stay within the allocation).
		off := (uint64(slot) % ag.Est) * ag.Stride
		p.Load(ag.AggR.Base+off, ag.Stride)
		p.Store(ag.AggR.Base+off, ag.Stride)
		p.ALU(pr.aAlu)
		p.Mul(pr.aMul)
		p.Dep(2 + 2*pr.aMul)
	} else {
		for ai, a := range pl.Aggs {
			var v int64
			if a.Arg != nil {
				v = a.Arg.Eval(pr.b, w.rows)
			}
			a.Fold(ag.Scalar, ai, v, ag.Matched == 1)
		}
		p.ALU(pr.aAlu)
		p.Mul(pr.aMul)
		p.Dep(1 + pr.aMul/2)
	}
}

// probeJoin probes join ji for the current rows, following the
// duplicate-key chain so every matching build row contributes.
func (w *worker) probeJoin(ji int) {
	pr, p := w.pr, w.p
	if ji == len(pr.pl.Joins) {
		w.aggRow()
		return
	}
	j := pr.pl.Joins[ji]
	p.ALU(pr.pkAlu[ji])
	p.Mul(pr.pkMul[ji])
	key := j.ProbeKey.Eval(pr.b, w.rows)
	site := uint64(siteSQLProbe + 4*ji)
	bs := &pr.builds[ji]
	for slot := bs.HT.LookupProbed(p, site, key); slot >= 0; slot = bs.HT.LookupNextProbed(p, site, slot, key) {
		w.rows[j.Build] = int(bs.RowOf[slot])
		for _, c := range bs.Payload {
			p.Load(c.Addr(w.rows[j.Build]), c.ElemBytes())
		}
		w.probeJoin(ji + 1)
	}
}

// RunMorsel executes driver rows [start, end): the fused filter +
// probes + aggregation pass of the compiled engine, restricted to one
// cache-friendly slice of the scan.
//
//olap:allow sectionpair BeginSection is a section switch here; the last section stays open until Sections()
func (w *worker) RunMorsel(start, end int) {
	pr, pl, p := w.pr, w.pr.pl, w.p
	n := uint64(end - start)
	p.BeginSection(pr.secScan)
	for _, ci := range pr.filterCols {
		c := pr.b.Tables[0][ci]
		p.SeqLoad(c.Addr(start), n*c.ElemBytes(), c.ElemBytes())
	}
	if pr.streamAll {
		for _, ci := range pr.payloadCols {
			c := pr.b.Tables[0][ci]
			p.SeqLoad(c.Addr(start), n*c.ElemBytes(), c.ElemBytes())
		}
	}
	p.BeginSection(pr.secLoop)
	for i := start; i < end; i++ {
		w.rows[0] = i
		if pl.Filter != nil {
			// The compiled engine folds the conjunction into arithmetic
			// behind a single branch (Section 6: Typer only experiences
			// the overall selectivity).
			p.ALU(pr.fAlu)
			p.Mul(pr.fMul)
			pass := pl.Filter.Eval(pr.b, w.rows)
			p.BranchOp(siteSQLFilter, pass)
			if !pass {
				continue
			}
		}
		if !pr.streamAll {
			for _, ci := range pr.payloadCols {
				c := pr.b.Tables[0][ci]
				p.SparseLoad(c.Addr(i), c.ElemBytes())
			}
		}
		w.probeJoin(0)
	}
	pr.e.loopTail(p, n)
}

// Partial returns the worker's aggregation state for merging.
func (w *worker) Partial() *relop.Partial { return w.agg.Partial() }
