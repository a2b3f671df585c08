// Package tectorwise implements the paper's vectorized OLAP engine
// (the Tectorwise prototype of Kersten et al., modelled on
// VectorWise/DBMS X): queries run as sequences of primitives over
// cache-resident vectors of ~1024 values, connected by materialized
// intermediates and selection vectors. Materialization is the engine's
// defining trade-off: it cuts memory pressure (lower bandwidth
// utilization than Typer) and keeps the stall profile flat across
// projectivities, while the extra loads/stores add execution-resource
// pressure.
//
// The engine optionally executes its primitives with AVX-512 SIMD
// (Section 8), which divides the arithmetic micro-op count by the lane
// width and doubles the memory-level parallelism of gather probes.
package tectorwise

import (
	"olapmicro/internal/engine"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

// Branch-site identifiers.
const (
	siteSel1 = iota + 0x2000
	siteSel2
	siteSel3
	siteJoinMatch
	siteQ1Filter
	siteQ6P1
	siteQ6P2
	siteQ6P3
	siteQ6P4
	siteQ6P5
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

// Engine is a Tectorwise instance bound to one database image.
type Engine struct {
	d     *tpch.Data
	costs engine.TectorwiseCosts
	simd  bool
	lanes uint64
	vec   int // vector size in values

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
	cust struct {
		custKey    storage.ColI64
		mktSegment storage.ColI8
	}
	supp struct{ suppKey, nationKey, acctBal storage.ColI64 }
	nat  struct{ nationKey storage.ColI64 }
	ps   struct{ partKey, suppKey, availQty, supplyCost storage.ColI64 }
	part struct {
		partKey storage.ColI64
		name    storage.ColStr
	}

	// Intermediate vector and selection-vector regions, reused across
	// chunks so they stay cache-resident.
	vecR [8]probe.Region
	selR [4]probe.Region
}

// Option configures the engine.
type Option func(*Engine)

// WithSIMD enables AVX-512 primitives (only meaningful on a machine
// that supports them; Section 8 uses the Skylake model).
func WithSIMD() Option { return func(e *Engine) { e.simd = true } }

// New binds a Tectorwise engine to the data. The vector size adapts to
// the machine's L1D so intermediates stay L1-resident. lanes is the
// machine's 64-bit SIMD width, used only in SIMD mode.
func New(d *tpch.Data, as *probe.AddrSpace, l1dBytes int64, lanes int, opts ...Option) *Engine {
	e := &Engine{d: d, costs: engine.DefaultTectorwiseCosts(), lanes: uint64(lanes)}
	for _, o := range opts {
		o(e)
	}
	if e.lanes < 1 {
		e.lanes = 1
	}
	e.vec = e.costs.VectorFor(l1dBytes)

	e.i64, e.i8, e.str = relop.BindCatalog(as, "tw.", d)
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
	e.cust.custKey = e.i64["c_custkey"]
	e.cust.mktSegment = e.i8["c_mktsegment"]
	e.supp.suppKey = e.i64["s_suppkey"]
	e.supp.nationKey = e.i64["s_nationkey"]
	e.supp.acctBal = e.i64["s_acctbal"]
	e.nat.nationKey = e.i64["n_nationkey"]
	e.ps.partKey = e.i64["ps_partkey"]
	e.ps.suppKey = e.i64["ps_suppkey"]
	e.ps.availQty = e.i64["ps_availqty"]
	e.ps.supplyCost = e.i64["ps_supplycost"]
	e.part.partKey = e.i64["p_partkey"]
	e.part.name = e.str["p_name"]

	for i := range e.vecR {
		e.vecR[i] = as.Alloc("tw.vec", uint64(e.vec)*8)
	}
	for i := range e.selR {
		e.selR[i] = as.Alloc("tw.sel", uint64(e.vec)*4)
	}
	return e
}

// Name identifies the engine in figures.
func (e *Engine) Name() string {
	if e.simd {
		return "Tectorwise+SIMD"
	}
	return "Tectorwise"
}

// arith charges n single-value arithmetic operations, collapsed into
// lane-wide ops in SIMD mode.
func (e *Engine) arith(p *probe.Probe, n uint64) {
	if e.simd {
		p.SIMD(n / e.lanes)
	} else {
		p.ALU(n)
	}
}

// mulArith charges n multiply-class operations.
func (e *Engine) mulArith(p *probe.Probe, n uint64) {
	if e.simd {
		p.SIMD(n / e.lanes)
	} else {
		p.Mul(n)
	}
}

// vecLoad charges loading n contiguous values of an intermediate or
// column chunk at addr (SIMD loads move a lane-width per uop).
func (e *Engine) vecLoad(p *probe.Probe, addr uint64, n uint64) {
	if n == 0 {
		return
	}
	if e.simd {
		p.SeqLoad(addr, n*8, 8*e.lanes)
	} else {
		p.SeqLoad(addr, n*8, 8)
	}
}

// vecStore charges materializing n contiguous values at addr, plus the
// execution-resource pressure of the store stream.
func (e *Engine) vecStore(p *probe.Probe, addr uint64, n uint64) {
	if n == 0 {
		return
	}
	if e.simd {
		p.SeqStore(addr, n*8, 8*e.lanes)
	} else {
		p.SeqStore(addr, n*8, 8)
	}
	p.ExecPressure(n * e.costs.ExecPressurePerStore / 10)
}

// primOverhead charges the per-primitive interpretation overhead
// (function dispatch, vector bookkeeping) plus the per-value
// selection-vector handling of the vectorized model; the per-value
// portion vectorizes with SIMD (compress-store and mask arithmetic).
func (e *Engine) primOverhead(p *probe.Probe, values uint64) {
	vectors := values/uint64(e.vec) + 1
	p.ALU(vectors * e.costs.PerVector)
	e.arith(p, values*(e.costs.PerPrimValue-1))
}

// gather loads one selection-vector position: a scalar load in scalar
// mode, one lane of a SIMD gather in SIMD mode (the gather's uops are
// charged per vector by gatherOps).
func (e *Engine) gather(p *probe.Probe, addr uint64) {
	if e.simd {
		p.GatherLoad(addr, 8)
	} else {
		p.SparseLoad(addr, 8)
	}
}

// gatherOps charges the lane-collapsed uops of gathering n values.
func (e *Engine) gatherOps(p *probe.Probe, n uint64) {
	if e.simd {
		p.SIMD(n / e.lanes)
	}
}

// Projection runs SUM(col1 [+ col2 ...]) over lineitem: degree-1 feeds
// the aggregation primitive directly; higher degrees chain add
// primitives through materialized intermediates, which is why the
// processor sees the same pattern from degree 2 onwards (Section 3).
func (e *Engine) Projection(p *probe.Probe, degree int) engine.Result {
	if degree < 1 || degree > 4 {
		degree = 4
	}
	cols := [4]storage.ColI64{e.li.extendedPrice, e.li.discount, e.li.tax, e.li.quantity}
	n := e.d.Lineitem.Rows()
	p.SetFootprint(e.costs.Footprint, uint64(n/e.vec+1))

	var sum int64
	res := make([]int64, e.vec)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)

		if degree == 1 {
			e.vecLoad(p, cols[0].Addr(start), cn)
		} else {
			// res = col0 + col1
			for i := 0; i < int(cn); i++ {
				res[i] = cols[0].V.At(start+i) + cols[1].V.At(start+i)
			}
			e.vecLoad(p, cols[0].Addr(start), cn)
			e.vecLoad(p, cols[1].Addr(start), cn)
			e.arith(p, cn)
			e.vecStore(p, e.vecR[0].Base, cn)
			e.primOverhead(p, cn)
			// res += colK for the remaining columns: load the
			// intermediate back, add the next column, materialize.
			for c := 2; c < degree; c++ {
				for i := 0; i < int(cn); i++ {
					res[i] += cols[c].V.At(start + i)
				}
				e.vecLoad(p, e.vecR[0].Base, cn)
				e.vecLoad(p, cols[c].Addr(start), cn)
				e.arith(p, cn)
				e.vecStore(p, e.vecR[0].Base, cn)
				e.primOverhead(p, cn)
			}
		}

		// Aggregation primitive over the final vector.
		if degree == 1 {
			for i := start; i < end; i++ {
				sum += cols[0].V.At(i)
			}
		} else {
			e.vecLoad(p, e.vecR[0].Base, cn)
			for i := 0; i < int(cn); i++ {
				sum += res[i]
			}
		}
		e.arith(p, cn)
		if e.simd {
			p.Dep(cn / e.lanes)
			p.ExecPressure(cn * 4 / 10 / e.lanes)
		} else {
			p.Dep(cn)
			// The scalar reduction's serial adds pressure the ALU
			// scheduler beyond what the port maxima express.
			p.ExecPressure(cn * 4 / 10)
		}
		e.primOverhead(p, cn)
	}
	return engine.Result{Sum: sum, Rows: 1}
}

// Selection runs the three-predicate selection micro-benchmark. The
// vectorized engine evaluates every predicate with its own selection
// primitive, so the branch predictor faces each predicate's individual
// data selectivity (Section 4) — unless predication turns the
// selection-vector construction branch-free (Section 7).
func (e *Engine) Selection(p *probe.Probe, cut engine.SelectionCutoffs, predicated bool) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	cols := [4]storage.ColI64{e.li.extendedPrice, e.li.discount, e.li.tax, e.li.quantity}
	p.SetFootprint(e.costs.Footprint, uint64(n/e.vec+1))

	var sum int64
	sel1 := make([]int32, e.vec)
	sel2 := make([]int32, e.vec)
	sel3 := make([]int32, e.vec)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)

		// sel1 = positions with l_shipdate < cutoff (dense input).
		e.vecLoad(p, e.li.shipDate.Addr(start), cn)
		k1 := 0
		for i := start; i < end; i++ {
			pass := l.ShipDate.At(i) < cut.ShipDate
			if predicated {
				// Branch-free: unconditionally write, advance by mask.
				sel1[k1] = int32(i)
				if pass {
					k1++
				}
			} else {
				p.BranchOp(siteSel1, pass)
				if pass {
					sel1[k1] = int32(i)
					k1++
				}
			}
		}
		if predicated {
			e.arith(p, cn*3) // compare + compress-store index math
			e.vecStore(p, e.selR[0].Base, cn/2)
		} else {
			e.arith(p, cn)
			e.vecStore(p, e.selR[0].Base, uint64(k1)/2+1)
		}
		e.primOverhead(p, cn)

		// sel2 = sel1 positions with l_commitdate < cutoff (sparse).
		k2 := e.selPass(p, siteSel2, e.li.commitDate, sel1[:k1], sel2, cut.CommitDate, predicated, 1)
		// sel3 = sel2 positions with l_receiptdate < cutoff.
		k3 := e.selPass(p, siteSel3, e.li.receiptDate, sel2[:k2], sel3, cut.ReceiptDate, predicated, 2)

		// Projection primitives gather the surviving positions.
		for c := 0; c < 4; c++ {
			for _, idx := range sel3[:k3] {
				e.gather(p, cols[c].Addr(int(idx)))
			}
			e.gatherOps(p, uint64(k3))
			e.arith(p, uint64(k3))
			if c < 3 {
				e.vecStore(p, e.vecR[1].Base, uint64(k3))
			}
			e.primOverhead(p, uint64(k3))
		}
		for _, idx := range sel3[:k3] {
			i := int(idx)
			sum += cols[0].V.At(i) + cols[1].V.At(i) + cols[2].V.At(i) + cols[3].V.At(i)
		}
		p.Dep(uint64(k3))
	}
	return engine.Result{Sum: sum, Rows: 1}
}

// selPass evaluates one predicate over a selection vector, producing
// the surviving positions. Sparse candidate loads hit the column at
// selected offsets only.
func (e *Engine) selPass(p *probe.Probe, site uint64, col storage.ColI64, in []int32, out []int32, cutoff int64, predicated bool, selIdx int) int {
	k := 0
	for _, idx := range in {
		e.gather(p, col.Addr(int(idx)))
		pass := col.V.At(int(idx)) < cutoff
		if predicated {
			out[k] = idx
			if pass {
				k++
			}
		} else {
			p.BranchOp(site, pass)
			if pass {
				out[k] = idx
				k++
			}
		}
	}
	cn := uint64(len(in))
	e.gatherOps(p, cn)
	if predicated {
		e.arith(p, cn*3)
		e.vecStore(p, e.selR[selIdx].Base, cn/2)
	} else {
		e.arith(p, cn)
		e.vecStore(p, e.selR[selIdx].Base, uint64(k)/2+1)
	}
	e.primOverhead(p, cn)
	return k
}
