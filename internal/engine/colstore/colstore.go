// Package colstore implements "DBMS C": the column-store extension of
// the commercial row-store (DBMS R). It processes values
// block-at-a-time in dedicated column loops — an order of magnitude
// leaner than the row engine — but every block still passes through
// the row engine's coordination layer, and the combined code footprint
// slightly exceeds L1I. The result, per the paper: ~90 % Retiring,
// with the small stall share dominated by branch mispredictions and
// Icache misses.
package colstore

import (
	"olapmicro/internal/engine"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

const (
	siteSelPred1 = iota + 0x4000
	siteSelPred2
	siteSelPred3
	siteJoinMatch
)

// Engine is a DBMS C instance bound to one database image.
type Engine struct {
	d     *tpch.Data
	costs engine.ColStoreCosts

	li struct {
		orderKey                               storage.ColI64
		quantity, extendedPrice, discount, tax storage.ColI64
		shipDate, commitDate, receiptDate      storage.ColI64
	}
	ord  struct{ orderKey storage.ColI64 }
	supp struct{ suppKey, nationKey, acctBal storage.ColI64 }
	nat  struct{ nationKey storage.ColI64 }
	ps   struct{ partKey, suppKey, availQty, supplyCost storage.ColI64 }
}

// New binds DBMS C to the data.
func New(d *tpch.Data, as *probe.AddrSpace) *Engine {
	e := &Engine{d: d, costs: engine.DefaultColStoreCosts()}
	l := &d.Lineitem
	e.li.orderKey = storage.NewColI64(as, "c.l_orderkey", &l.OrderKey)
	e.li.quantity = storage.NewColI64(as, "c.l_quantity", &l.Quantity)
	e.li.extendedPrice = storage.NewColI64(as, "c.l_extendedprice", &l.ExtendedPrice)
	e.li.discount = storage.NewColI64(as, "c.l_discount", &l.Discount)
	e.li.tax = storage.NewColI64(as, "c.l_tax", &l.Tax)
	e.li.shipDate = storage.NewColI64(as, "c.l_shipdate", &l.ShipDate)
	e.li.commitDate = storage.NewColI64(as, "c.l_commitdate", &l.CommitDate)
	e.li.receiptDate = storage.NewColI64(as, "c.l_receiptdate", &l.ReceiptDate)
	e.ord.orderKey = storage.NewColI64(as, "c.o_orderkey", &d.Orders.OrderKey)
	e.supp.suppKey = storage.NewColI64(as, "c.s_suppkey", &d.Supplier.SuppKey)
	e.supp.nationKey = storage.NewColI64(as, "c.s_nationkey", &d.Supplier.NationKey)
	e.supp.acctBal = storage.NewColI64(as, "c.s_acctbal", &d.Supplier.AcctBal)
	e.nat.nationKey = storage.NewColI64(as, "c.n_nationkey", &d.Nation.NationKey)
	e.ps.partKey = storage.NewColI64(as, "c.ps_partkey", &d.PartSupp.PartKey)
	e.ps.suppKey = storage.NewColI64(as, "c.ps_suppkey", &d.PartSupp.SuppKey)
	e.ps.availQty = storage.NewColI64(as, "c.ps_availqty", &d.PartSupp.AvailQty)
	e.ps.supplyCost = storage.NewColI64(as, "c.ps_supplycost", &d.PartSupp.SupplyCost)
	return e
}

// Name identifies the engine in figures.
func (e *Engine) Name() string { return "DBMS C" }

// rowEngineJoinTuple charges the per-tuple cost of running a join
// through the host row engine: the column blocks are converted back
// to tuples and fed to the interpreted hash-join operator, which is
// why the paper measures DBMS C *slower* than DBMS R on joins (6.3x
// vs 4.5x the compiled engine on the large join).
func (e *Engine) rowEngineJoinTuple(p *probe.Probe) {
	p.ALU(e.costs.JoinPerValue)
	p.Dep(e.costs.JoinDepPerValue)
	p.BranchStatic(8, 1)
}

// blockOverhead charges one block's trip through the row-engine
// coordination layer plus per-value column-loop work for the block.
func (e *Engine) blockOverhead(p *probe.Probe, values uint64, columns uint64) {
	c := &e.costs
	p.ALU(c.PerBlock)
	p.ALU(values * columns * c.PerValue)
	branches := uint64(float64(values) * c.BranchPerVal)
	p.BranchStatic(branches, branches/8)
	p.AddDecodeEvents(c.DecodePerBlok)
}

// blocks iterates [0,n) in block-size chunks, calling f(start, end)
// and charging footprint traversals.
func (e *Engine) blocks(p *probe.Probe, n int, columns uint64, f func(start, end int)) {
	bs := e.costs.BlockSize
	nBlocks := uint64(n/bs + 1)
	p.SetFootprint(e.costs.Footprint, nBlocks)
	for start := 0; start < n; start += bs {
		end := start + bs
		if end > n {
			end = n
		}
		f(start, end)
		e.blockOverhead(p, uint64(end-start), columns)
	}
}

// Projection runs SUM over 1..4 lineitem columns, block-at-a-time over
// only the needed columns.
func (e *Engine) Projection(p *probe.Probe, degree int) engine.Result {
	if degree < 1 || degree > 4 {
		degree = 4
	}
	cols := [4]storage.ColI64{e.li.extendedPrice, e.li.discount, e.li.tax, e.li.quantity}
	n := e.d.Lineitem.Rows()
	var sum int64
	e.blocks(p, n, uint64(degree), func(start, end int) {
		cn := uint64(end - start)
		for c := 0; c < degree; c++ {
			p.SeqLoad(cols[c].Addr(start), cn*8, 8)
			for i := start; i < end; i++ {
				sum += cols[c].V.At(i)
			}
		}
		p.Dep(cn)
	})
	return engine.Result{Sum: sum, Rows: 1}
}

// Selection runs the three-predicate micro-benchmark: predicate
// columns are scanned block-at-a-time, predicates short-circuit per
// value inside the column loop.
func (e *Engine) Selection(p *probe.Probe, cut engine.SelectionCutoffs, _ bool) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	var sum int64
	e.blocks(p, n, 3, func(start, end int) {
		cn := uint64(end - start)
		p.SeqLoad(e.li.shipDate.Addr(start), cn*8, 8)
		for i := start; i < end; i++ {
			pass1 := l.ShipDate.At(i) < cut.ShipDate
			p.BranchOp(siteSelPred1, pass1)
			if !pass1 {
				continue
			}
			p.SparseLoad(e.li.commitDate.Addr(i), 8)
			pass2 := l.CommitDate.At(i) < cut.CommitDate
			p.BranchOp(siteSelPred2, pass2)
			if !pass2 {
				continue
			}
			p.SparseLoad(e.li.receiptDate.Addr(i), 8)
			pass3 := l.ReceiptDate.At(i) < cut.ReceiptDate
			p.BranchOp(siteSelPred3, pass3)
			if !pass3 {
				continue
			}
			p.SparseLoad(e.li.extendedPrice.Addr(i), 8)
			p.SparseLoad(e.li.discount.Addr(i), 8)
			p.SparseLoad(e.li.tax.Addr(i), 8)
			p.SparseLoad(e.li.quantity.Addr(i), 8)
			p.ALU(4 + e.costs.PerValue) // projection work for survivors
			sum += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
		}
	})
	return engine.Result{Sum: sum, Rows: 1}
}

// Join runs the hash-join micro-benchmarks: column scans feed the row
// engine's hash-join operator block-at-a-time.
func (e *Engine) Join(p *probe.Probe, as *probe.AddrSpace, size engine.JoinSize) engine.Result {
	d := e.d
	switch size {
	case engine.JoinSmall:
		ht := join.New(as, "c.join.nation", d.Nation.NationKey.Len())
		for i := range d.Nation.NationKey.Len() {
			ht.InsertProbed(p, d.Nation.NationKey.At(i))
		}
		e.blockOverhead(p, uint64(d.Nation.NationKey.Len()), 1)
		var sum int64
		n := d.Supplier.SuppKey.Len()
		e.blocks(p, n, 3, func(start, end int) {
			cn := uint64(end - start)
			p.SeqLoad(e.supp.nationKey.Addr(start), cn*8, 8)
			for i := start; i < end; i++ {
				e.rowEngineJoinTuple(p)
				if ht.LookupProbed(p, siteJoinMatch, d.Supplier.NationKey.At(i)) >= 0 {
					p.SparseLoad(e.supp.acctBal.Addr(i), 8)
					p.SparseLoad(e.supp.suppKey.Addr(i), 8)
					p.ALU(2)
					sum += d.Supplier.AcctBal.At(i) + d.Supplier.SuppKey.At(i)
				}
			}
		})
		return engine.Result{Sum: sum, Rows: 1}
	case engine.JoinMedium:
		ht := join.New(as, "c.join.supplier", d.Supplier.SuppKey.Len())
		for i := range d.Supplier.SuppKey.Len() {
			ht.InsertProbed(p, d.Supplier.SuppKey.At(i))
		}
		e.blockOverhead(p, uint64(d.Supplier.SuppKey.Len()), 1)
		var sum int64
		n := d.PartSupp.PartKey.Len()
		e.blocks(p, n, 3, func(start, end int) {
			cn := uint64(end - start)
			p.SeqLoad(e.ps.suppKey.Addr(start), cn*8, 8)
			for i := start; i < end; i++ {
				e.rowEngineJoinTuple(p)
				if ht.LookupProbed(p, siteJoinMatch, d.PartSupp.SuppKey.At(i)) >= 0 {
					p.SparseLoad(e.ps.availQty.Addr(i), 8)
					p.SparseLoad(e.ps.supplyCost.Addr(i), 8)
					p.ALU(2)
					sum += d.PartSupp.AvailQty.At(i) + d.PartSupp.SupplyCost.At(i)
				}
			}
		})
		return engine.Result{Sum: sum, Rows: 1}
	default:
		ht := join.New(as, "c.join.orders", d.Orders.OrderKey.Len())
		nO := d.Orders.OrderKey.Len()
		for start := 0; start < nO; start += e.costs.BlockSize {
			end := start + e.costs.BlockSize
			if end > nO {
				end = nO
			}
			p.SeqLoad(e.ord.orderKey.Addr(start), uint64(end-start)*8, 8)
			for i := start; i < end; i++ {
				ht.InsertProbed(p, d.Orders.OrderKey.At(i))
			}
			e.blockOverhead(p, uint64(end-start), 1)
		}
		l := &d.Lineitem
		var sum int64
		e.blocks(p, l.Rows(), 5, func(start, end int) {
			cn := uint64(end - start)
			p.SeqLoad(e.li.orderKey.Addr(start), cn*8, 8)
			for i := start; i < end; i++ {
				e.rowEngineJoinTuple(p)
				if ht.LookupProbed(p, siteJoinMatch, l.OrderKey.At(i)) >= 0 {
					p.Load(e.li.extendedPrice.Addr(i), 8)
					p.Load(e.li.discount.Addr(i), 8)
					p.Load(e.li.tax.Addr(i), 8)
					p.Load(e.li.quantity.Addr(i), 8)
					p.ALU(4)
					sum += l.ExtendedPrice.At(i) + l.Discount.At(i) + l.Tax.At(i) + l.Quantity.At(i)
				}
			}
		})
		return engine.Result{Sum: sum, Rows: 1}
	}
}
