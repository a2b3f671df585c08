// Package typer implements the paper's compiled-execution OLAP engine
// (the Typer prototype of Kersten et al., modelled on HyPer): each
// query runs as a single fused, data-centric loop — scan, filter,
// arithmetic and aggregation in one pass per tuple, with a tiny
// generated-code instruction footprint.
//
// Every method executes the query for real over the generated TPC-H
// data and simultaneously reports the micro-ops, branches and memory
// accesses the generated machine code would perform through the probe.
package typer

import (
	"olapmicro/internal/engine"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

// Branch-site identifiers (stand-ins for static branch addresses).
const (
	siteSelPred1 = iota + 0x1000
	siteSelPred2
	siteSelPred3
	siteJoinMatch
	siteQ1Filter
	siteQ6Ship
	siteQ6Disc
	siteQ6Qty
	siteQ9Green
	siteQ9PS
	siteQ9Supp
	siteQ9Ord
	siteQ18Having
	siteGroupBy
	siteQ3Ship
	siteQ3Ord
	siteQ3Seg
	siteQ3Probe
	siteQ18TopHaving
)

// Engine is a Typer instance bound to one database image.
type Engine struct {
	d     *tpch.Data
	costs engine.TyperCosts

	// Catalog-wide bindings by SQL column name; the hardcoded queries
	// read the struct fields below, the generalized SQL pipeline
	// (ops.go) resolves relop column specs against the maps.
	i64 map[string]storage.ColI64
	i8  map[string]storage.ColI8
	str map[string]storage.ColStr

	li struct {
		orderKey, partKey, suppKey             storage.ColI64
		quantity, extendedPrice, discount, tax storage.ColI64
		shipDate, commitDate, receiptDate      storage.ColI64
		returnFlag, lineStatus                 storage.ColI8
	}
	ord struct {
		orderKey, custKey, orderDate, totalPrice, shipPriority storage.ColI64
	}
	supp struct {
		suppKey, nationKey, acctBal storage.ColI64
	}
	nat struct {
		nationKey, regionKey storage.ColI64
	}
	ps struct {
		partKey, suppKey, availQty, supplyCost storage.ColI64
	}
	part struct {
		partKey storage.ColI64
		name    storage.ColStr
	}
	cust struct {
		custKey    storage.ColI64
		mktSegment storage.ColI8
	}
}

// New binds a Typer engine to the data, carving simulated address
// regions for every catalog column from as.
func New(d *tpch.Data, as *probe.AddrSpace) *Engine {
	e := &Engine{d: d, costs: engine.DefaultTyperCosts()}
	e.i64, e.i8, e.str = relop.BindCatalog(as, "ty.", d)
	e.li.orderKey = e.i64["l_orderkey"]
	e.li.partKey = e.i64["l_partkey"]
	e.li.suppKey = e.i64["l_suppkey"]
	e.li.quantity = e.i64["l_quantity"]
	e.li.extendedPrice = e.i64["l_extendedprice"]
	e.li.discount = e.i64["l_discount"]
	e.li.tax = e.i64["l_tax"]
	e.li.shipDate = e.i64["l_shipdate"]
	e.li.commitDate = e.i64["l_commitdate"]
	e.li.receiptDate = e.i64["l_receiptdate"]
	e.li.returnFlag = e.i8["l_returnflag"]
	e.li.lineStatus = e.i8["l_linestatus"]
	e.ord.orderKey = e.i64["o_orderkey"]
	e.ord.custKey = e.i64["o_custkey"]
	e.ord.orderDate = e.i64["o_orderdate"]
	e.ord.totalPrice = e.i64["o_totalprice"]
	e.ord.shipPriority = e.i64["o_shippriority"]
	e.supp.suppKey = e.i64["s_suppkey"]
	e.supp.nationKey = e.i64["s_nationkey"]
	e.supp.acctBal = e.i64["s_acctbal"]
	e.nat.nationKey = e.i64["n_nationkey"]
	e.nat.regionKey = e.i64["n_regionkey"]
	e.ps.partKey = e.i64["ps_partkey"]
	e.ps.suppKey = e.i64["ps_suppkey"]
	e.ps.availQty = e.i64["ps_availqty"]
	e.ps.supplyCost = e.i64["ps_supplycost"]
	e.part.partKey = e.i64["p_partkey"]
	e.part.name = e.str["p_name"]
	e.cust.custKey = e.i64["c_custkey"]
	e.cust.mktSegment = e.i8["c_mktsegment"]
	return e
}

// Name identifies the engine in figures.
func (e *Engine) Name() string { return "Typer" }

// projCols returns the projection micro-benchmark's column order:
// l_extendedprice, l_discount, l_tax, l_quantity (Section 2).
func (e *Engine) projCols() [4]storage.ColI64 {
	return [4]storage.ColI64{e.li.extendedPrice, e.li.discount, e.li.tax, e.li.quantity}
}

// Projection runs SUM(col1 [+ col2 ...]) over lineitem with the given
// degree (1..4): one fused loop reading degree columns.
func (e *Engine) Projection(p *probe.Probe, degree int) engine.Result {
	if degree < 1 || degree > 4 {
		degree = 4
	}
	cols := e.projCols()
	n := e.d.Lineitem.Rows()
	p.SetFootprint(e.costs.Footprint, 1)

	var sum int64
	switch degree {
	case 1:
		for i := 0; i < n; i++ {
			sum += cols[0].V.At(i)
		}
	case 2:
		for i := 0; i < n; i++ {
			sum += cols[0].V.At(i) + cols[1].V.At(i)
		}
	case 3:
		for i := 0; i < n; i++ {
			sum += cols[0].V.At(i) + cols[1].V.At(i) + cols[2].V.At(i)
		}
	default:
		for i := 0; i < n; i++ {
			sum += cols[0].V.At(i) + cols[1].V.At(i) + cols[2].V.At(i) + cols[3].V.At(i)
		}
	}

	// Events of the generated loop: one load and one add per touched
	// value, loop control amortized by 4x unrolling, the accumulator
	// dependency chain, and the streaming column reads.
	un := uint64(n)
	for c := 0; c < degree; c++ {
		p.SeqLoad(cols[c].R.Base, un*8, 8)
		p.ALU(un * e.costs.PerColumn)
	}
	p.ALU(un * e.costs.LoopPerTuple / 4 / 2)
	p.LoopBranch(siteSelPred1, un/4)
	p.Dep(un) // serial accumulator adds, 1 cycle each

	return engine.Result{Sum: sum, Rows: 1}
}

// Selection runs the selection micro-benchmark: the degree-4
// projection under a conjunctive WHERE over l_shipdate, l_commitdate
// and l_receiptdate, each with cutoffs' individual selectivity.
// The compiled engine evaluates predicates together (Section 4): the
// first two fold into one arithmetic conjunction behind a single
// branch, the third short-circuits behind it.
func (e *Engine) Selection(p *probe.Probe, cut engine.SelectionCutoffs, predicated bool) engine.Result {
	if predicated {
		return e.selectionPredicated(p, cut)
	}
	l := &e.d.Lineitem
	n := l.Rows()
	cols := e.projCols()
	p.SetFootprint(e.costs.Footprint, 1)

	var sum int64
	// The compiled engine folds the first two predicates into one
	// arithmetic conjunction with a single branch (selectivity s^2),
	// then short-circuits the third — which is why its predictor sees
	// far lower effective selectivities than the vectorized engine's
	// per-predicate primitives (Section 4).
	p.SeqLoad(e.li.shipDate.R.Base, uint64(n)*8, 8)
	p.SeqLoad(e.li.commitDate.R.Base, uint64(n)*8, 8)
	for i := 0; i < n; i++ {
		p.ALU(4)
		pass12 := l.ShipDate.At(i) < cut.ShipDate && l.CommitDate.At(i) < cut.CommitDate
		p.BranchOp(siteSelPred1, pass12)
		if !pass12 {
			continue
		}
		p.SparseLoad(e.li.receiptDate.Addr(i), 8)
		p.ALU(2)
		pass3 := l.ReceiptDate.At(i) < cut.ReceiptDate
		p.BranchOp(siteSelPred3, pass3)
		if !pass3 {
			continue
		}
		var v int64
		for c := 0; c < 4; c++ {
			p.SparseLoad(cols[c].Addr(i), 8)
			v += cols[c].V.At(i)
		}
		p.ALU(4)
		p.Dep(1)
		sum += v
	}
	un := uint64(n)
	p.ALU(un * e.costs.LoopPerTuple / 4 / 2)
	p.LoopBranch(siteSelPred1+100, un/4)
	return engine.Result{Sum: sum, Rows: 1}
}

// selectionPredicated is the branch-free variant (Section 7): the
// predicate is computed as an arithmetic 0/1 value and multiplied into
// the aggregate, so every column is scanned fully for all
// selectivities — more computation, no branches.
func (e *Engine) selectionPredicated(p *probe.Probe, cut engine.SelectionCutoffs) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	cols := e.projCols()
	p.SetFootprint(e.costs.Footprint, 1)

	var sum int64
	for i := 0; i < n; i++ {
		pred := int64(1)
		if l.ShipDate.At(i) >= cut.ShipDate {
			pred = 0
		}
		if l.CommitDate.At(i) >= cut.CommitDate {
			pred = 0
		}
		if l.ReceiptDate.At(i) >= cut.ReceiptDate {
			pred = 0
		}
		v := cols[0].V.At(i) + cols[1].V.At(i) + cols[2].V.At(i) + cols[3].V.At(i)
		sum += pred * v
	}
	un := uint64(n)
	// All seven columns are streamed unconditionally.
	for _, c := range []storage.ColI64{e.li.shipDate, e.li.commitDate, e.li.receiptDate, cols[0], cols[1], cols[2], cols[3]} {
		p.SeqLoad(c.R.Base, un*8, 8)
	}
	// Per tuple: 3 compares + 2 ANDs for the predicate, 3 adds for the
	// projection, 1 predicated accumulate (conditional-move class).
	p.ALU(un * 9)
	p.Dep(un)
	p.ALU(un * e.costs.LoopPerTuple / 4 / 2)
	p.LoopBranch(siteSelPred1+200, un/4)
	return engine.Result{Sum: sum, Rows: 1}
}

// Join runs the paper's hash-join micro-benchmarks. The compiled
// engine fuses the build into the smaller table's scan and the probe
// plus aggregation into the larger table's scan.
func (e *Engine) Join(p *probe.Probe, as *probe.AddrSpace, size engine.JoinSize) engine.Result {
	p.SetFootprint(e.costs.Footprint*2, 1)
	switch size {
	case engine.JoinSmall:
		return e.joinSmall(p, as)
	case engine.JoinMedium:
		return e.joinMedium(p, as)
	default:
		return e.joinLarge(p, as)
	}
}

// joinSmall joins supplier with nation on nationkey and sums
// s_acctbal + s_suppkey for matches.
func (e *Engine) joinSmall(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	nat := e.d.Nation
	ht := join.New(as, "ty.join.nation", nat.NationKey.Len())
	p.SeqLoad(e.nat.nationKey.R.Base, uint64(nat.NationKey.Len())*8, 8)
	for i := range nat.NationKey.Len() {
		ht.InsertProbed(p, nat.NationKey.At(i))
	}
	s := e.d.Supplier
	n := s.SuppKey.Len()
	p.SeqLoad(e.supp.nationKey.R.Base, uint64(n)*8, 8)
	var sum int64
	for i := 0; i < n; i++ {
		if ht.LookupProbed(p, siteJoinMatch, s.NationKey.At(i)) >= 0 {
			p.SparseLoad(e.supp.acctBal.Addr(i), 8)
			p.SparseLoad(e.supp.suppKey.Addr(i), 8)
			p.ALU(2)
			p.Dep(1)
			sum += s.AcctBal.At(i) + s.SuppKey.At(i)
		}
	}
	e.loopTail(p, uint64(n))
	return engine.Result{Sum: sum, Rows: 1}
}

// joinMedium joins partsupp with supplier on suppkey and sums
// ps_availqty + ps_supplycost.
func (e *Engine) joinMedium(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	s := e.d.Supplier
	ht := join.New(as, "ty.join.supplier", s.SuppKey.Len())
	p.SeqLoad(e.supp.suppKey.R.Base, uint64(s.SuppKey.Len())*8, 8)
	for i := range s.SuppKey.Len() {
		ht.InsertProbed(p, s.SuppKey.At(i))
	}
	ps := e.d.PartSupp
	n := ps.PartKey.Len()
	p.SeqLoad(e.ps.suppKey.R.Base, uint64(n)*8, 8)
	var sum int64
	for i := 0; i < n; i++ {
		if ht.LookupProbed(p, siteJoinMatch, ps.SuppKey.At(i)) >= 0 {
			p.SparseLoad(e.ps.availQty.Addr(i), 8)
			p.SparseLoad(e.ps.supplyCost.Addr(i), 8)
			p.ALU(2)
			p.Dep(1)
			sum += ps.AvailQty.At(i) + ps.SupplyCost.At(i)
		}
	}
	e.loopTail(p, uint64(n))
	return engine.Result{Sum: sum, Rows: 1}
}

// joinLarge joins lineitem with orders on orderkey and sums the four
// projection columns for matches.
func (e *Engine) joinLarge(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	o := e.d.Orders
	ht := join.New(as, "ty.join.orders", o.OrderKey.Len())
	p.SeqLoad(e.ord.orderKey.R.Base, uint64(o.OrderKey.Len())*8, 8)
	for i := range o.OrderKey.Len() {
		ht.InsertProbed(p, o.OrderKey.At(i))
	}
	l := &e.d.Lineitem
	n := l.Rows()
	cols := e.projCols()
	p.SeqLoad(e.li.orderKey.R.Base, uint64(n)*8, 8)
	var sum int64
	for i := 0; i < n; i++ {
		if ht.LookupProbed(p, siteJoinMatch, l.OrderKey.At(i)) >= 0 {
			var v int64
			for c := 0; c < 4; c++ {
				p.SparseLoad(cols[c].Addr(i), 8)
				v += cols[c].V.At(i)
			}
			p.ALU(4)
			p.Dep(1)
			sum += v
		}
	}
	e.loopTail(p, uint64(n))
	return engine.Result{Sum: sum, Rows: 1}
}

// GroupBy runs the group-by micro-benchmark the paper describes but
// does not plot: SUM(l_extendedprice) grouped by the composite
// (l_suppkey, l_partkey). Its hash table is the subject of the
// chain-length comparison in Section 6.
func (e *Engine) GroupBy(p *probe.Probe, as *probe.AddrSpace) (engine.Result, *join.Table) {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*2, 1)
	// Group-by operators size their tables from cardinality estimates,
	// and composite-key group counts are systematically underestimated
	// — which is why group-by hash tables end up more loaded and more
	// irregular than join tables built at the exact build-side size
	// (the Section 6 chain-length comparison).
	est := e.d.Part.PartKey.Len() + 1
	ht := join.New(as, "ty.groupby", est)
	aggR := as.Alloc("ty.groupby.agg", uint64(n/2+1)*8)
	agg := make([]int64, 0, n/2+1)

	p.SeqLoad(e.li.suppKey.R.Base, uint64(n)*8, 8)
	p.SeqLoad(e.li.partKey.R.Base, uint64(n)*8, 8)
	p.SeqLoad(e.li.extendedPrice.R.Base, uint64(n)*8, 8)
	for i := 0; i < n; i++ {
		// Composite grouping key: mixing two correlated attributes is
		// what makes group-by tables more irregular than join tables.
		key := l.SuppKey.At(i)*1_000_003 + l.PartKey.At(i)
		p.Mul(1)
		p.ALU(1)
		slot, inserted := ht.LookupOrInsertProbed(p, siteGroupBy, key)
		if inserted {
			agg = append(agg, 0)
		}
		agg[slot] += l.ExtendedPrice.At(i)
		p.Load(aggR.Base+uint64(slot)*8, 8)
		p.Store(aggR.Base+uint64(slot)*8, 8)
		p.ALU(1)
	}
	e.loopTail(p, uint64(n))

	var res engine.Result
	for s, v := range agg {
		res.Sum += v
		res.AddRow(int64(s), v)
	}
	res.Rows = int64(len(agg))
	return res, ht
}

// loopTail charges amortized loop-control events for n iterations.
func (e *Engine) loopTail(p *probe.Probe, n uint64) {
	p.ALU(n * e.costs.LoopPerTuple / 4 / 2)
	p.LoopBranch(siteSelPred3+300, n/4)
}
