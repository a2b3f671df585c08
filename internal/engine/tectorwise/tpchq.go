package tectorwise

import (
	"strings"

	"olapmicro/internal/engine"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/tpch"
)

// Q1 is TPC-H Q1 vectorized: a selection primitive on shipdate, then
// per-chunk hash-group primitives against the four-group aggregate
// table. The tiny table stays in L1, leaving the arithmetic and
// primitive overheads (Execution) as the bottleneck.
func (e *Engine) Q1(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*2, uint64(n/e.vec+1))

	type agg struct {
		sumQty, sumPrice, sumDisc, sumCharge, count int64
	}
	ht := join.New(as, "tw.q1", 8)
	aggR := as.Alloc("tw.q1.agg", 8*5*8)
	var aggs [8]agg

	cutoff := tpch.DateQ1Cutoff
	sel := make([]int32, e.vec)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		// Selection primitive (passes ~98 %: near-perfectly predicted).
		e.vecLoad(p, e.li.shipDate.Addr(start), cn)
		k := 0
		for i := start; i < end; i++ {
			pass := l.ShipDate.At(i) <= cutoff
			p.BranchOp(siteQ1Filter, pass)
			if pass {
				sel[k] = int32(i)
				k++
			}
		}
		e.arith(p, cn)
		e.vecStore(p, e.selR[0].Base, uint64(k)/2+1)
		e.primOverhead(p, cn)

		// Gather the five value columns and the two flags for selected
		// positions (nearly dense -> streaming pattern).
		uk := uint64(k)
		for _, col := range []uint64{
			e.li.quantity.Addr(start), e.li.extendedPrice.Addr(start),
			e.li.discount.Addr(start), e.li.tax.Addr(start),
		} {
			e.vecLoad(p, col, cn)
			_ = col
		}
		p.SeqLoad(e.li.returnFlag.Addr(start), cn, 1)
		p.SeqLoad(e.li.lineStatus.Addr(start), cn, 1)

		// Hash-group primitives: key computation, table probe,
		// aggregate updates (decimal arithmetic).
		e.mulArith(p, uk*2)
		for _, idx := range sel[:k] {
			i := int(idx)
			key := l.ReturnFlag.At(i)<<8 | l.LineStatus.At(i)
			slot, _ := ht.LookupOrInsertProbed(p, siteQ1Filter+1, key)
			a := &aggs[slot]
			price := l.ExtendedPrice.At(i)
			disc := l.Discount.At(i)
			discPrice := price * (100 - disc) / 100
			charge := discPrice * (100 + l.Tax.At(i)) / 100
			a.sumQty += l.Quantity.At(i)
			a.sumPrice += price
			a.sumDisc += discPrice
			a.sumCharge += charge
			a.count++
			p.Load(aggR.Base+uint64(slot)*40, 40)
			p.Store(aggR.Base+uint64(slot)*40, 40)
		}
		e.mulArith(p, uk*4)
		e.arith(p, uk*18)
		// Materialized intermediates for the five aggregate inputs.
		e.vecStore(p, e.vecR[3].Base, uk)
		e.vecStore(p, e.vecR[4].Base, uk)
		// The decimal-arithmetic chains of the aggregate updates
		// saturate the multiply/ALU scheduler.
		p.ExecPressure(uk * 16 / 10)
		e.primOverhead(p, uk*3)
	}

	var res engine.Result
	for s := 0; s < ht.Len(); s++ {
		a := aggs[s]
		// Sum carries the first aggregate (sum_qty), the repository-wide
		// convention shared with the SQL executor.
		res.Sum += a.sumQty
		res.AddRow(a.sumQty, a.sumPrice, a.sumDisc, a.sumCharge, a.count)
	}
	res.Rows = int64(ht.Len())
	return res
}

// Q6 is TPC-H Q6 vectorized: five separate selection primitives, one
// per condition, each evaluated at its own data selectivity — the
// reason Tectorwise's Q6 is branch-misprediction bound (Section 6).
func (e *Engine) Q6(p *probe.Probe, predicated bool) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint, uint64(n/e.vec+1))

	var revenue int64
	selA := make([]int32, e.vec)
	selB := make([]int32, e.vec)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)

		// Primitive 1+2: shipdate >= lo, shipdate < hi (dense).
		e.vecLoad(p, e.li.shipDate.Addr(start), cn)
		k := 0
		for i := start; i < end; i++ {
			p1 := l.ShipDate.At(i) >= tpch.DateQ6Lo
			if !predicated {
				p.BranchOp(siteQ6P1, p1)
			}
			if !p1 {
				continue
			}
			p2 := l.ShipDate.At(i) < tpch.DateQ6Hi
			if !predicated {
				p.BranchOp(siteQ6P2, p2)
			}
			if p2 {
				selA[k] = int32(i)
				k++
			}
		}
		e.arith(p, cn*2)
		if predicated {
			e.arith(p, cn*2)
		}
		e.vecStore(p, e.selR[0].Base, cn/2)
		e.primOverhead(p, cn*2)

		// Primitive 3+4: discount between 5 and 7 (sparse gathers).
		k2 := 0
		for _, idx := range selA[:k] {
			p.SparseLoad(e.li.discount.Addr(int(idx)), 8)
			d := l.Discount.At(int(idx))
			p3 := d >= 5
			p4 := d <= 7
			if !predicated {
				p.BranchOp(siteQ6P3, p3)
				if p3 {
					p.BranchOp(siteQ6P4, p4)
				}
			}
			if p3 && p4 {
				selB[k2] = idx
				k2++
			}
		}
		e.arith(p, uint64(k)*2)
		if predicated {
			e.arith(p, uint64(k)*2)
		}
		e.vecStore(p, e.selR[1].Base, uint64(k)/2+1)
		e.primOverhead(p, uint64(k)*2)

		// Primitive 5: quantity < 24.
		k3 := 0
		for _, idx := range selB[:k2] {
			p.SparseLoad(e.li.quantity.Addr(int(idx)), 8)
			p5 := l.Quantity.At(int(idx)) < 24
			if !predicated {
				p.BranchOp(siteQ6P5, p5)
			}
			if p5 {
				selA[k3] = idx
				k3++
			}
		}
		e.arith(p, uint64(k2))
		if predicated {
			e.arith(p, uint64(k2)*2)
		}
		e.vecStore(p, e.selR[2].Base, uint64(k2)/2+1)
		e.primOverhead(p, uint64(k2))

		// Projection: revenue += price * discount over survivors.
		for _, idx := range selA[:k3] {
			i := int(idx)
			p.SparseLoad(e.li.extendedPrice.Addr(i), 8)
			revenue += l.ExtendedPrice.At(i) * l.Discount.At(i) / 100
		}
		e.mulArith(p, uint64(k3))
		e.arith(p, uint64(k3))
		p.Dep(uint64(k3))
		e.primOverhead(p, uint64(k3))
	}
	return engine.Result{Sum: revenue, Rows: 1}
}

// Q9 is TPC-H Q9 vectorized: the same plan as the compiled engine
// (green parts, partsupp, supplier and orders hash tables, one probe
// pass over lineitem) with per-chunk hash/gather/compare primitives.
func (e *Engine) Q9(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	p.SetFootprint(e.costs.Footprint*3, 1)

	nParts := d.Part.PartKey.Len()
	greenHT := join.New(as, "tw.q9.green", nParts/16+8)
	for i := 0; i < nParts; i++ {
		name := d.Part.Name[i]
		p.Load(e.part.name.Addr(i), e.part.name.Len(i))
		p.ALU(uint64(len(name) / 4))
		green := strings.Contains(name, "green")
		p.BranchOp(siteQ9Green, green)
		if green {
			greenHT.InsertProbed(p, d.Part.PartKey.At(i))
		}
	}
	psHT := e.buildCompositePS(p, as)
	suppHT := e.buildProbed(p, as, "tw.q9.supp", e.supp.suppKey)
	ordHT := e.buildProbed(p, as, "tw.q9.ord", e.ord.orderKey)

	aggHT := join.New(as, "tw.q9.agg", 25*8)
	aggR := as.Alloc("tw.q9.agg.sums", 25*8*8)
	aggs := make([]int64, 0, 25*8)

	l := &d.Lineitem
	n := l.Rows()
	sel := make([]int32, e.vec)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.li.partKey.Addr(start), cn)
		e.mulArith(p, cn*2)
		k := 0
		for i := start; i < end; i++ {
			if greenHT.LookupProbed(p, siteQ9Green+1, l.PartKey.At(i)) >= 0 {
				sel[k] = int32(i)
				k++
			}
		}
		e.vecStore(p, e.selR[0].Base, uint64(k)/2+1)
		e.primOverhead(p, cn)

		uk := uint64(k)
		e.mulArith(p, uk*6) // hash primitives for the three joins
		for _, idx := range sel[:k] {
			i := int(idx)
			p.SparseLoad(e.li.suppKey.Addr(i), 8)
			psSlot := psHT.LookupProbed(p, siteQ9PS, engine.Q9Key(l.PartKey.At(i), l.SuppKey.At(i)))
			if psSlot < 0 {
				continue
			}
			sSlot := suppHT.LookupProbed(p, siteQ9Supp, l.SuppKey.At(i))
			p.SparseLoad(e.li.orderKey.Addr(i), 8)
			oSlot := ordHT.LookupProbed(p, siteQ9Ord, l.OrderKey.At(i))
			if sSlot < 0 || oSlot < 0 {
				continue
			}
			p.Load(e.supp.nationKey.Addr(int(sSlot)), 8)
			p.Load(e.ord.orderDate.Addr(int(oSlot)), 8)
			p.Load(e.ps.supplyCost.Addr(int(psSlot)), 8)
			p.SparseLoad(e.li.extendedPrice.Addr(i), 8)
			p.Load(e.li.discount.Addr(i), 8)
			p.Load(e.li.quantity.Addr(i), 8)

			nation := d.Supplier.NationKey.At(int(sSlot))
			year := int64(tpch.Year(d.Orders.OrderDate.At(int(oSlot))))
			profit := l.ExtendedPrice.At(i)*(100-l.Discount.At(i))/100 - d.PartSupp.SupplyCost.At(int(psSlot))*l.Quantity.At(i)
			key := nation*10000 + year
			slot, inserted := aggHT.LookupOrInsertProbed(p, siteQ9Ord+1, key)
			if inserted {
				aggs = append(aggs, 0)
			}
			aggs[slot] += profit
			p.Load(aggR.Base+uint64(slot)*8, 8)
			p.Store(aggR.Base+uint64(slot)*8, 8)
		}
		e.mulArith(p, uk*2)
		e.arith(p, uk*8)
		e.vecStore(p, e.vecR[3].Base, uk)
		e.primOverhead(p, uk*4)
	}

	var res engine.Result
	for s := 0; s < aggHT.Len(); s++ {
		res.Sum += aggs[s]
		res.AddRow(int64(s), aggs[s])
	}
	res.Rows = int64(len(aggs))
	return res
}

// buildCompositePS builds the (partkey,suppkey)-keyed partsupp table.
func (e *Engine) buildCompositePS(p *probe.Probe, as *probe.AddrSpace) *join.Table {
	d := e.d
	nPS := d.PartSupp.PartKey.Len()
	ht := join.New(as, "tw.q9.ps", nPS)
	for start := 0; start < nPS; start += e.vec {
		end := start + e.vec
		if end > nPS {
			end = nPS
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.ps.partKey.Addr(start), cn)
		e.vecLoad(p, e.ps.suppKey.Addr(start), cn)
		e.mulArith(p, cn*2)
		e.arith(p, cn)
		for i := start; i < end; i++ {
			ht.InsertProbed(p, engine.Q9Key(d.PartSupp.PartKey.At(i), d.PartSupp.SuppKey.At(i)))
		}
		e.primOverhead(p, cn)
	}
	return ht
}

// Q3 is TPC-H Q3 vectorized: chunked filtered build scans over orders
// (date) and customer (BUILDING segment), a selection primitive on
// lineitem's shipdate, probe primitives through both hash tables, a
// per-order revenue aggregation and the ordered top-10 emission.
func (e *Engine) Q3(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	l := &d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*3, uint64(n/e.vec+1))
	cutoff := tpch.DateQ3Cutoff

	// Build: pre-cutoff orders keyed by orderkey, chunk at a time.
	nO := d.Orders.OrderKey.Len()
	ordHT := join.New(as, "tw.q3.ord", nO)
	ordRow := make([]int32, 0, nO)
	for start := 0; start < nO; start += e.vec {
		end := start + e.vec
		if end > nO {
			end = nO
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.ord.orderKey.Addr(start), cn)
		e.vecLoad(p, e.ord.orderDate.Addr(start), cn)
		e.mulArith(p, cn*2) // hash primitive
		e.arith(p, cn)
		for i := start; i < end; i++ {
			pass := d.Orders.OrderDate.At(i) < cutoff
			p.BranchOp(siteQ3Ord, pass)
			if !pass {
				continue
			}
			ordHT.InsertProbed(p, d.Orders.OrderKey.At(i))
			ordRow = append(ordRow, int32(i))
		}
		e.primOverhead(p, cn)
	}

	// Build: BUILDING customers keyed by custkey.
	nC := d.Customer.CustKey.Len()
	custHT := join.New(as, "tw.q3.cust", nC/4+8)
	for start := 0; start < nC; start += e.vec {
		end := start + e.vec
		if end > nC {
			end = nC
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.cust.custKey.Addr(start), cn)
		p.SeqLoad(e.cust.mktSegment.Addr(start), cn, 1)
		e.mulArith(p, cn*2)
		e.arith(p, cn)
		for i := start; i < end; i++ {
			pass := d.Customer.MktSegment.At(i) == tpch.MktSegBuilding
			p.BranchOp(siteQ3Seg, pass)
			if !pass {
				continue
			}
			custHT.InsertProbed(p, d.Customer.CustKey.At(i))
		}
		e.primOverhead(p, cn)
	}

	// Probe pass over lineitem: selection primitive on shipdate (~54 %
	// pass, the predictor's worst regime), probe primitives through the
	// two tables, revenue aggregation per surviving order.
	grpHT := join.New(as, "tw.q3.grp", len(ordRow)+8)
	aggR := as.Alloc("tw.q3.agg", uint64(len(ordRow)+8)*8)
	revs := make([]int64, 0, len(ordRow))
	dates := make([]int64, 0, len(ordRow))
	prios := make([]int64, 0, len(ordRow))

	sel := make([]int32, e.vec)
	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.li.shipDate.Addr(start), cn)
		k := 0
		for i := start; i < end; i++ {
			pass := l.ShipDate.At(i) > cutoff
			p.BranchOp(siteQ3Ship, pass)
			if pass {
				sel[k] = int32(i)
				k++
			}
		}
		e.arith(p, cn)
		e.vecStore(p, e.selR[0].Base, uint64(k)/2+1)
		e.primOverhead(p, cn)

		// Probe primitive: orderkey streams (the filter passes most of
		// the chunk), each survivor walks the orders table.
		uk := uint64(k)
		e.vecLoad(p, e.li.orderKey.Addr(start), cn)
		e.mulArith(p, uk*2)
		for pos := 0; pos < k; pos++ {
			i := int(sel[pos])
			oSlot := ordHT.LookupProbed(p, siteQ3Probe, l.OrderKey.At(i))
			if oSlot < 0 {
				continue
			}
			oi := int(ordRow[oSlot])
			p.Load(e.ord.custKey.Addr(oi), 8)
			if custHT.LookupProbed(p, siteQ3Probe+2, d.Orders.CustKey.At(oi)) < 0 {
				continue
			}
			e.gather(p, e.li.extendedPrice.Addr(i))
			e.gather(p, e.li.discount.Addr(i))
			revenue := l.ExtendedPrice.At(i) * (100 - l.Discount.At(i)) / 100
			slot, inserted := grpHT.LookupOrInsertProbed(p, siteQ3Probe+3, l.OrderKey.At(i))
			if inserted {
				revs = append(revs, 0)
				p.Load(e.ord.orderDate.Addr(oi), 8)
				p.Load(e.ord.shipPriority.Addr(oi), 8)
				dates = append(dates, d.Orders.OrderDate.At(oi))
				prios = append(prios, d.Orders.ShipPriority.At(oi))
			}
			revs[slot] += revenue
			p.Load(aggR.Base+uint64(slot)*8, 8)
			p.Store(aggR.Base+uint64(slot)*8, 8)
		}
		e.gatherOps(p, uk)
		e.mulArith(p, uk*2)
		e.arith(p, uk*2)
		e.vecStore(p, e.selR[1].Base, uk/2+1)
		e.primOverhead(p, uk)
	}

	// Top 10 by revenue desc, orderdate asc.
	keys := grpHT.Keys()
	rows := make([]engine.TopRow, len(revs))
	for s := range revs {
		rows[s] = engine.TopRow{Tuple: []int64{keys[s], dates[s], prios[s]}, Agg: revs[s]}
	}
	return engine.SortTopRows(p, rows, 10, 2, func(a, b *engine.TopRow) bool {
		if a.Agg != b.Agg {
			return a.Agg > b.Agg
		}
		return a.Tuple[1] < b.Tuple[1]
	})
}

// Q18Top is the full TPC-H Q18 vectorized, ordered output included:
// Q18's chunked high-cardinality aggregation and HAVING filter, the
// orders and customer joins over the rare survivors, then the 100
// largest orders by totalprice (date ascending on ties) in order.
func (e *Engine) Q18Top(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	l := &d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*2, uint64(n/e.vec+1))

	nO := d.Orders.OrderKey.Len()
	grpHT := join.New(as, "tw.q18t.grp", nO)
	aggR := as.Alloc("tw.q18t.agg", uint64(nO)*8)
	qty := make([]int64, 0, nO)

	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.li.orderKey.Addr(start), cn)
		e.vecLoad(p, e.li.quantity.Addr(start), cn)
		e.mulArith(p, cn*2)
		for i := start; i < end; i++ {
			slot, inserted := grpHT.LookupOrInsertProbed(p, siteQ18TopHaving, l.OrderKey.At(i))
			if inserted {
				qty = append(qty, 0)
			}
			qty[slot] += l.Quantity.At(i)
			p.Load(aggR.Base+uint64(slot)*8, 8)
			p.Store(aggR.Base+uint64(slot)*8, 8)
		}
		e.arith(p, cn)
		e.primOverhead(p, cn)
	}

	ordHT := e.buildProbed(p, as, "tw.q18t.ord", e.ord.orderKey)
	custHT := e.buildProbed(p, as, "tw.q18t.cust", e.cust.custKey)
	keys := grpHT.Keys()
	var rows []engine.TopRow
	for s := range qty {
		p.Load(aggR.Base+uint64(s)*8, 8)
		pass := qty[s] > 300
		p.BranchOp(siteQ18TopHaving+1, pass)
		if !pass {
			continue
		}
		oSlot := ordHT.LookupProbed(p, siteQ18TopHaving+2, keys[s])
		if oSlot < 0 {
			continue
		}
		p.Load(e.ord.custKey.Addr(int(oSlot)), 8)
		if custHT.LookupProbed(p, siteQ18TopHaving+3, d.Orders.CustKey.At(int(oSlot))) < 0 {
			continue
		}
		p.Load(e.ord.orderDate.Addr(int(oSlot)), 8)
		p.Load(e.ord.totalPrice.Addr(int(oSlot)), 8)
		rows = append(rows, engine.TopRow{
			Tuple: []int64{d.Orders.CustKey.At(int(oSlot)), keys[s], d.Orders.OrderDate.At(int(oSlot)), d.Orders.TotalPrice.At(int(oSlot))},
			Agg:   qty[s],
		})
	}
	e.arith(p, uint64(len(qty)))
	// Top 100 by totalprice desc, orderdate asc.
	return engine.SortTopRows(p, rows, 100, 2, func(a, b *engine.TopRow) bool {
		if a.Tuple[3] != b.Tuple[3] {
			return a.Tuple[3] > b.Tuple[3]
		}
		return a.Tuple[2] < b.Tuple[2]
	})
}

// Q18 is TPC-H Q18 vectorized: chunked hash aggregation of lineitem by
// orderkey into an LLC-exceeding table, then the HAVING filter and the
// order/customer join over the rare survivors.
func (e *Engine) Q18(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	l := &d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*2, uint64(n/e.vec+1))

	nO := d.Orders.OrderKey.Len()
	grpHT := join.New(as, "tw.q18.grp", nO)
	aggR := as.Alloc("tw.q18.agg", uint64(nO)*8)
	qty := make([]int64, 0, nO)

	for start := 0; start < n; start += e.vec {
		end := start + e.vec
		if end > n {
			end = n
		}
		cn := uint64(end - start)
		e.vecLoad(p, e.li.orderKey.Addr(start), cn)
		e.vecLoad(p, e.li.quantity.Addr(start), cn)
		e.mulArith(p, cn*2)
		for i := start; i < end; i++ {
			slot, inserted := grpHT.LookupOrInsertProbed(p, siteQ18Having, l.OrderKey.At(i))
			if inserted {
				qty = append(qty, 0)
			}
			qty[slot] += l.Quantity.At(i)
			p.Load(aggR.Base+uint64(slot)*8, 8)
			p.Store(aggR.Base+uint64(slot)*8, 8)
		}
		e.arith(p, cn)
		e.primOverhead(p, cn)
	}

	ordHT := e.buildProbed(p, as, "tw.q18.ord", e.ord.orderKey)
	var res engine.Result
	keys := grpHT.Keys()
	for s := range qty {
		p.Load(aggR.Base+uint64(s)*8, 8)
		pass := qty[s] > 300
		p.BranchOp(siteQ18Having+1, pass)
		if !pass {
			continue
		}
		oSlot := ordHT.LookupProbed(p, siteQ18Having+2, keys[s])
		if oSlot < 0 {
			continue
		}
		p.Load(e.ord.custKey.Addr(int(oSlot)), 8)
		p.Load(e.ord.totalPrice.Addr(int(oSlot)), 8)
		res.Sum += qty[s]
		res.AddRow(d.Orders.CustKey.At(int(oSlot)), keys[s], d.Orders.TotalPrice.At(int(oSlot)), qty[s])
	}
	e.arith(p, uint64(len(qty)))
	return res
}
