package tectorwise

import (
	"olapmicro/internal/engine"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
)

// Join runs the hash-join micro-benchmarks with vectorized probe
// primitives: per chunk, a hash primitive computes bucket indices, a
// gather primitive fetches candidate entries (independent random
// loads), and a compare primitive validates matches. In SIMD mode the
// gathers run with doubled memory-level parallelism (Section 8.2).
func (e *Engine) Join(p *probe.Probe, as *probe.AddrSpace, size engine.JoinSize) engine.Result {
	p.SetFootprint(e.costs.Footprint*2, 1)
	if e.simd {
		p.RandMLPBoost = 1.7
	}
	switch size {
	case engine.JoinSmall:
		ht := e.buildProbed(p, as, "tw.join.nation", e.nat.nationKey)
		return e.probeSum2(p, ht, e.supp.nationKey, e.supp.acctBal, e.supp.suppKey)
	case engine.JoinMedium:
		ht := e.buildProbed(p, as, "tw.join.supplier", e.supp.suppKey)
		return e.probeSum2(p, ht, e.ps.suppKey, e.ps.availQty, e.ps.supplyCost)
	default:
		ht := e.buildProbed(p, as, "tw.join.orders", e.ord.orderKey)
		return e.probeSum4(p, ht)
	}
}

// buildProbed builds a hash table over keyCol with vectorized insert
// primitives.
func (e *Engine) buildProbed(p *probe.Probe, as *probe.AddrSpace, name string, keyCol storage.ColI64) *join.Table {
	n := keyCol.V.Len()
	ht := join.New(as, name, n)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, keyCol.Addr(start), cn)
		e.mulArith(p, cn*2) // vectorized hash
		for i := start; i < end; i++ {
			ht.InsertProbed(p, keyCol.V.At(i))
		}
		e.primOverhead(p, cn)
	}
	return ht
}

// probeSum2 probes ht with probeCol and sums a+b over matches (the
// small and medium join shapes).
func (e *Engine) probeSum2(p *probe.Probe, ht *join.Table,
	probeCol, aCol, bCol storage.ColI64) engine.Result {

	n := probeCol.V.Len()
	var sum int64
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, probeCol.Addr(start), cn)
		e.mulArith(p, cn*2) // vectorized hash primitive
		matches := 0
		for i := start; i < end; i++ {
			if ht.LookupProbed(p, siteJoinMatch, probeCol.V.At(i)) >= 0 {
				p.SparseLoad(aCol.Addr(i), 8)
				p.SparseLoad(bCol.Addr(i), 8)
				sum += aCol.V.At(i) + bCol.V.At(i)
				matches++
			}
		}
		e.arith(p, uint64(matches)*2)
		e.vecStore(p, e.vecR[2].Base, uint64(matches))
		p.Dep(uint64(matches))
		e.primOverhead(p, cn)
	}
	return engine.Result{Sum: sum, Rows: 1}
}

// probeSum4 probes ht with l_orderkey and sums the four projection
// columns over matches (the large join shape).
func (e *Engine) probeSum4(p *probe.Probe, ht *join.Table) engine.Result {
	l := &e.d.Lineitem
	cols := [4]storage.ColI64{e.li.extendedPrice, e.li.discount, e.li.tax, e.li.quantity}
	n := l.Rows()
	var sum int64
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.li.orderKey.Addr(start), cn)
		e.mulArith(p, cn*2)
		matches := 0
		for i := start; i < end; i++ {
			if ht.LookupProbed(p, siteJoinMatch, l.OrderKey.At(i)) >= 0 {
				var v int64
				for c := 0; c < 4; c++ {
					p.SparseLoad(cols[c].Addr(i), 8)
					v += cols[c].V.At(i)
				}
				sum += v
				matches++
			}
		}
		e.arith(p, uint64(matches)*4)
		e.vecStore(p, e.vecR[2].Base, uint64(matches))
		p.Dep(uint64(matches))
		e.primOverhead(p, cn)
	}
	return engine.Result{Sum: sum, Rows: 1}
}

// JoinProbeOnly runs just the probe phase of the large join against a
// pre-built table — Section 8.2 compares exactly this phase with and
// without SIMD.
func (e *Engine) JoinProbeOnly(p *probe.Probe, ht *join.Table) engine.Result {
	if e.simd {
		p.RandMLPBoost = 1.7
	}
	p.SetFootprint(e.costs.Footprint, 1)
	return e.probeSum4(p, ht)
}

// BuildLargeJoinTable builds the orders hash table without counting
// events (setup for JoinProbeOnly).
func (e *Engine) BuildLargeJoinTable(as *probe.AddrSpace) *join.Table {
	keys := &e.d.Orders.OrderKey
	ht := join.New(as, "tw.join.orders.pre", keys.Len())
	for i := range keys.Len() {
		ht.Insert(keys.At(i))
	}
	return ht
}

// GroupBy runs the group-by micro-benchmark (SUM(l_extendedprice)
// GROUP BY l_suppkey, l_partkey) with vectorized hash/aggregate
// primitives. The returned table feeds the chain-length analysis.
func (e *Engine) GroupBy(p *probe.Probe, as *probe.AddrSpace) (engine.Result, *join.Table) {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*2, uint64(n/e.vec+1))
	// Sized from a (typically low) cardinality estimate, like the
	// compiled engine's group-by; see the Section 6 chain analysis.
	est := e.d.Part.PartKey.Len() + 1
	ht := join.New(as, "tw.groupby", est)
	aggR := as.Alloc("tw.groupby.agg", uint64(n/2+1)*8)
	agg := make([]int64, 0, n/2+1)

	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.li.suppKey.Addr(start), cn)
		e.vecLoad(p, e.li.partKey.Addr(start), cn)
		e.vecLoad(p, e.li.extendedPrice.Addr(start), cn)
		e.mulArith(p, cn*2)
		for i := start; i < end; i++ {
			key := l.SuppKey.At(i)*1_000_003 + l.PartKey.At(i)
			slot, inserted := ht.LookupOrInsertProbed(p, siteGroupBy, key)
			if inserted {
				agg = append(agg, 0)
			}
			agg[slot] += l.ExtendedPrice.At(i)
			p.Load(aggR.Base+uint64(slot)*8, 8)
			p.Store(aggR.Base+uint64(slot)*8, 8)
		}
		e.arith(p, cn)
		e.primOverhead(p, cn)
	}

	var res engine.Result
	for s, v := range agg {
		res.Sum += v
		res.AddRow(int64(s), v)
	}
	res.Rows = int64(len(agg))
	return res, ht
}
