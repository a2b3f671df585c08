// Package rowstore implements "DBMS R": a traditional, commercial
// disk-based row-store, executing queries through an interpreted
// Volcano iterator tree over slotted pages. Its defining property in
// the paper is the huge retired-instruction footprint — every tuple
// crosses operator boundaries through virtual calls, has its
// attributes located in the page, and is evaluated by walking typed
// expression trees — which makes it orders of magnitude slower than
// the high-performance engines while, unlike OLTP systems, staying
// friendly to the instruction cache (the per-operator loops fit L1I).
package rowstore

import (
	"olapmicro/internal/engine"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

const (
	siteSelPred1 = iota + 0x3000
	siteSelPred2
	siteSelPred3
	siteJoinMatch
)

// Engine is a DBMS R instance bound to one database image.
type Engine struct {
	d     *tpch.Data
	costs engine.RowStoreCosts

	liHeap   storage.RowHeap // lineitem rows (all 16 attributes)
	ordHeap  storage.RowHeap
	suppHeap storage.RowHeap
	natHeap  storage.RowHeap
	psHeap   storage.RowHeap

	// meta simulates the interpreter's working data: catalog entries,
	// expression-tree nodes, tuple descriptors — spread over the heap
	// with poor locality.
	meta probe.Region
}

// Row widths: attribute bytes plus slotted-page/tuple-header overhead.
const (
	lineitemRowBytes = 136
	ordersRowBytes   = 96
	supplierRowBytes = 120
	nationRowBytes   = 64
	partsuppRowBytes = 96
	metaBytes        = 256 << 20
)

// New binds DBMS R to the data.
func New(d *tpch.Data, as *probe.AddrSpace) *Engine {
	return &Engine{
		d:        d,
		costs:    engine.DefaultRowStoreCosts(),
		liHeap:   storage.NewRowHeap(as, "r.lineitem", d.Lineitem.Rows(), lineitemRowBytes),
		ordHeap:  storage.NewRowHeap(as, "r.orders", d.Orders.OrderKey.Len(), ordersRowBytes),
		suppHeap: storage.NewRowHeap(as, "r.supplier", d.Supplier.SuppKey.Len(), supplierRowBytes),
		natHeap:  storage.NewRowHeap(as, "r.nation", d.Nation.NationKey.Len(), nationRowBytes),
		psHeap:   storage.NewRowHeap(as, "r.partsupp", d.PartSupp.PartKey.Len(), partsuppRowBytes),
		meta:     as.Alloc("r.meta", metaBytes),
	}
}

// Name identifies the engine in figures.
func (e *Engine) Name() string { return "DBMS R" }

// interpret charges one tuple's trip through the iterator tree:
// instruction-heavy, dependency-laden, with scattered accesses to
// interpreter metadata.
func (e *Engine) interpret(p *probe.Probe, tupleID int, columns int) {
	c := &e.costs
	p.ALU(c.PerTuple + uint64(columns)*c.PerColumn)
	// The interpreter's serial pointer chasing grows with the number
	// of expression-tree nodes it walks.
	p.Dep(c.DepPerTuple + uint64(columns)*c.PerColumn/2)
	// Interpretation branches mispredict at a data-independent ~4 %.
	p.BranchStatic(c.BranchPerTuple, c.BranchPerTuple/24)
	// Scattered metadata loads (tuple descriptors, expression nodes).
	h := uint64(tupleID) * 0x9E3779B97F4A7C15
	for m := uint64(0); m < c.MetaLoads; m++ {
		off := (h >> (m * 8)) % (metaBytes - 64)
		p.Load(e.meta.Base+off&^7, 8)
	}
	p.AddDecodeEvents(c.DecodePer1K / 1000)
}

// interpretJoin charges one tuple's trip through the hash-join
// operator's inner loop: a dedicated operator with roughly a third of
// the interpretation overhead of general expression evaluation (which
// is why the paper's DBMS R is only ~4.5x slower than the compiled
// engine on joins, against ~200x on projections).
func (e *Engine) interpretJoin(p *probe.Probe, tupleID int) {
	c := &e.costs
	p.ALU(c.PerTuple / 3)
	p.Dep(c.DepPerTuple / 3)
	p.BranchStatic(c.BranchPerTuple/2, c.BranchPerTuple/48)
	h := uint64(tupleID) * 0x9E3779B97F4A7C15
	for m := uint64(0); m < 2; m++ {
		off := (h >> (m * 8)) % (metaBytes - 64)
		p.Load(e.meta.Base+off&^7, 8)
	}
}

// decodeTail charges the residual decode events for n tuples.
func (e *Engine) decodeTail(p *probe.Probe, n uint64) {
	p.AddDecodeEvents(n * e.costs.DecodePer1K / 1000)
}

// Projection runs SUM over 1..4 lineitem columns. The row store reads
// whole 136-byte tuples no matter how few attributes the query needs.
func (e *Engine) Projection(p *probe.Probe, degree int) engine.Result {
	if degree < 1 || degree > 4 {
		degree = 4
	}
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint, 1)

	cols := [4]*storage.Ints{&l.ExtendedPrice, &l.Discount, &l.Tax, &l.Quantity}
	var sum int64
	for i := 0; i < n; i++ {
		p.Load(e.liHeap.Addr(i), lineitemRowBytes)
		e.interpret(p, i, degree)
		for c := 0; c < degree; c++ {
			sum += cols[c].At(i)
		}
	}
	e.decodeTail(p, uint64(n))
	return engine.Result{Sum: sum, Rows: 1}
}

// Selection runs the three-predicate selection micro-benchmark with
// interpreted, short-circuit predicate evaluation.
func (e *Engine) Selection(p *probe.Probe, cut engine.SelectionCutoffs, _ bool) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint, 1)

	var sum int64
	for i := 0; i < n; i++ {
		p.Load(e.liHeap.Addr(i), lineitemRowBytes)
		e.interpret(p, i, 3)
		pass1 := l.ShipDate.At(i) < cut.ShipDate
		p.BranchOp(siteSelPred1, pass1)
		if !pass1 {
			continue
		}
		p.ALU(e.costs.PerColumn)
		pass2 := l.CommitDate.At(i) < cut.CommitDate
		p.BranchOp(siteSelPred2, pass2)
		if !pass2 {
			continue
		}
		p.ALU(e.costs.PerColumn)
		pass3 := l.ReceiptDate.At(i) < cut.ReceiptDate
		p.BranchOp(siteSelPred3, pass3)
		if !pass3 {
			continue
		}
		p.ALU(4 * e.costs.PerColumn)
		sum += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
	}
	e.decodeTail(p, uint64(n))
	return engine.Result{Sum: sum, Rows: 1}
}

// Join runs the hash-join micro-benchmarks through the interpreted
// hash-join operator: both build and probe sides pay the full
// per-tuple interpretation cost on top of the hashing itself.
func (e *Engine) Join(p *probe.Probe, as *probe.AddrSpace, size engine.JoinSize) engine.Result {
	p.SetFootprint(e.costs.Footprint+6<<10, 1)
	d := e.d
	switch size {
	case engine.JoinSmall:
		ht := join.New(as, "r.join.nation", d.Nation.NationKey.Len())
		for i := range d.Nation.NationKey.Len() {
			p.Load(e.natHeap.Addr(i), nationRowBytes)
			e.interpretJoin(p, i)
			ht.InsertProbed(p, d.Nation.NationKey.At(i))
		}
		var sum int64
		for i := range d.Supplier.SuppKey.Len() {
			p.Load(e.suppHeap.Addr(i), supplierRowBytes)
			e.interpretJoin(p, i)
			if ht.LookupProbed(p, siteJoinMatch, d.Supplier.NationKey.At(i)) >= 0 {
				p.ALU(2 * e.costs.PerColumn)
				sum += d.Supplier.AcctBal.At(i) + d.Supplier.SuppKey.At(i)
			}
		}
		e.decodeTail(p, uint64(d.Supplier.SuppKey.Len()))
		return engine.Result{Sum: sum, Rows: 1}
	case engine.JoinMedium:
		ht := join.New(as, "r.join.supplier", d.Supplier.SuppKey.Len())
		for i := range d.Supplier.SuppKey.Len() {
			p.Load(e.suppHeap.Addr(i), supplierRowBytes)
			e.interpretJoin(p, i)
			ht.InsertProbed(p, d.Supplier.SuppKey.At(i))
		}
		var sum int64
		for i := range d.PartSupp.PartKey.Len() {
			p.Load(e.psHeap.Addr(i), partsuppRowBytes)
			e.interpretJoin(p, i)
			if ht.LookupProbed(p, siteJoinMatch, d.PartSupp.SuppKey.At(i)) >= 0 {
				p.ALU(2 * e.costs.PerColumn)
				sum += d.PartSupp.AvailQty.At(i) + d.PartSupp.SupplyCost.At(i)
			}
		}
		e.decodeTail(p, uint64(d.PartSupp.PartKey.Len()))
		return engine.Result{Sum: sum, Rows: 1}
	default:
		ht := join.New(as, "r.join.orders", d.Orders.OrderKey.Len())
		for i := range d.Orders.OrderKey.Len() {
			p.Load(e.ordHeap.Addr(i), ordersRowBytes)
			e.interpretJoin(p, i)
			ht.InsertProbed(p, d.Orders.OrderKey.At(i))
		}
		l := &d.Lineitem
		var sum int64
		for i := 0; i < l.Rows(); i++ {
			p.Load(e.liHeap.Addr(i), lineitemRowBytes)
			e.interpretJoin(p, i)
			if ht.LookupProbed(p, siteJoinMatch, l.OrderKey.At(i)) >= 0 {
				p.ALU(4 * e.costs.PerColumn)
				sum += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
			}
		}
		e.decodeTail(p, uint64(l.Rows()))
		return engine.Result{Sum: sum, Rows: 1}
	}
}
