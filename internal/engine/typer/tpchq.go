package typer

import (
	"strings"

	"olapmicro/internal/engine"
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/tpch"
)

// Q1 is TPC-H Q1: the low-cardinality group-by (4 groups). One fused
// pass over lineitem filters on shipdate and updates a register-file
// sized aggregation table — the paper's Execution-stall showcase
// (hash + decimal arithmetic saturate the ALUs while data streams).
func (e *Engine) Q1(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*3, 1)

	type agg struct {
		sumQty, sumPrice, sumDisc, sumCharge, count int64
	}
	ht := join.New(as, "ty.q1", 8)
	aggR := as.Alloc("ty.q1.agg", 8*5*8)
	var aggs [8]agg

	cutoff := tpch.DateQ1Cutoff
	// All six value columns plus the two flags stream fully: the filter
	// passes ~98 % of rows.
	un := uint64(n)
	p.SeqLoad(e.li.shipDate.R.Base, un*8, 8)
	p.SeqLoad(e.li.quantity.R.Base, un*8, 8)
	p.SeqLoad(e.li.extendedPrice.R.Base, un*8, 8)
	p.SeqLoad(e.li.discount.R.Base, un*8, 8)
	p.SeqLoad(e.li.tax.R.Base, un*8, 8)
	p.SeqLoad(e.li.returnFlag.R.Base, un, 1)
	p.SeqLoad(e.li.lineStatus.R.Base, un, 1)

	for i := 0; i < n; i++ {
		p.ALU(1)
		pass := l.ShipDate.At(i) <= cutoff
		p.BranchOp(siteQ1Filter, pass)
		if !pass {
			continue
		}
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
		// Aggregate updates: the hot table lives in L1; the decimal
		// multiply/divide chains and overflow checks dominate
		// (HyPer-style 128-bit decimal arithmetic).
		p.Load(aggR.Base+uint64(slot)*40, 40)
		p.Store(aggR.Base+uint64(slot)*40, 40)
		p.Mul(6)
		p.ALU(28)
		// The 128-bit decimal multiply/normalize chain is serial:
		// price*(1-disc) feeds *(1+tax) feeds the overflow check.
		p.Dep(18)
	}
	e.loopTail(p, un)

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

// Q6 is TPC-H Q6: the highly selective filter. The compiled engine
// folds all five conditions into one arithmetic conjunction and emits
// a single branch per tuple — so its predictor only ever faces the
// ~2 % overall selectivity (Section 6: "Typer only experiences the 2 %
// overall selectivity") and the query profiles like a scan:
// Dcache-bound.
func (e *Engine) Q6(p *probe.Probe, predicated bool) engine.Result {
	if predicated {
		return e.q6Predicated(p)
	}
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint, 1)

	var revenue int64
	un := uint64(n)
	// All three predicate columns are evaluated for every tuple (the
	// conjunction is computed at once); the price column is loaded
	// only for the rare qualifying tuples.
	p.SeqLoad(e.li.shipDate.R.Base, un*8, 8)
	p.SeqLoad(e.li.discount.R.Base, un*8, 8)
	p.SeqLoad(e.li.quantity.R.Base, un*8, 8)
	p.ALU(un * 7) // 5 compares + fused logic per tuple
	for i := 0; i < n; i++ {
		ship := l.ShipDate.At(i)
		disc := l.Discount.At(i)
		pass := ship >= tpch.DateQ6Lo && ship < tpch.DateQ6Hi &&
			disc >= 5 && disc <= 7 && l.Quantity.At(i) < 24
		p.BranchOp(siteQ6Ship, pass)
		if !pass {
			continue
		}
		p.SparseLoad(e.li.extendedPrice.Addr(i), 8)
		p.Mul(1)
		p.ALU(1)
		p.Dep(1)
		revenue += l.ExtendedPrice.At(i) * disc / 100
	}
	e.loopTail(p, un)
	return engine.Result{Sum: revenue, Rows: 1}
}

// q6Predicated is the branch-free Q6 of Section 7: all four columns
// stream fully and the five conditions fold into an arithmetic mask.
func (e *Engine) q6Predicated(p *probe.Probe) engine.Result {
	l := &e.d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint, 1)

	var revenue int64
	for i := 0; i < n; i++ {
		ship := l.ShipDate.At(i)
		disc := l.Discount.At(i)
		pred := int64(1)
		if ship < tpch.DateQ6Lo || ship >= tpch.DateQ6Hi {
			pred = 0
		}
		if disc < 5 || disc > 7 {
			pred = 0
		}
		if l.Quantity.At(i) >= 24 {
			pred = 0
		}
		revenue += pred * (l.ExtendedPrice.At(i) * disc / 100)
	}
	un := uint64(n)
	p.SeqLoad(e.li.shipDate.R.Base, un*8, 8)
	p.SeqLoad(e.li.discount.R.Base, un*8, 8)
	p.SeqLoad(e.li.quantity.R.Base, un*8, 8)
	p.SeqLoad(e.li.extendedPrice.R.Base, un*8, 8)
	// 5 compares + 4 logic ops + multiply + predicated accumulate.
	p.ALU(un * 10)
	p.Mul(un)
	p.Dep(un)
	e.loopTail(p, un)
	return engine.Result{Sum: revenue, Rows: 1}
}

// Q9 is TPC-H Q9: the join-intensive query. The plan filters part on
// '%green%', builds hash tables for green parts, partsupp, supplier
// and orders, then drives everything from a single probe pass over
// lineitem, grouping profit by (nation, order year).
func (e *Engine) Q9(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	p.SetFootprint(e.costs.Footprint*4, 1)

	// Build: green parts.
	nParts := d.Part.PartKey.Len()
	greenHT := join.New(as, "ty.q9.green", nParts/16+8)
	for i := 0; i < nParts; i++ {
		name := d.Part.Name[i]
		p.Load(e.part.name.Addr(i), e.part.name.Len(i))
		p.ALU(uint64(len(name) / 4)) // SIMD-less substring scan
		green := strings.Contains(name, "green")
		p.BranchOp(siteQ9Green, green)
		if green {
			greenHT.InsertProbed(p, d.Part.PartKey.At(i))
		}
	}

	// Build: partsupp keyed by (partkey, suppkey); slot = row index.
	nPS := d.PartSupp.PartKey.Len()
	psHT := join.New(as, "ty.q9.ps", nPS)
	p.SeqLoad(e.ps.partKey.R.Base, uint64(nPS)*8, 8)
	p.SeqLoad(e.ps.suppKey.R.Base, uint64(nPS)*8, 8)
	for i := 0; i < nPS; i++ {
		psHT.InsertProbed(p, engine.Q9Key(d.PartSupp.PartKey.At(i), d.PartSupp.SuppKey.At(i)))
	}

	// Build: supplier keyed by suppkey; slot = row index.
	nS := d.Supplier.SuppKey.Len()
	suppHT := join.New(as, "ty.q9.supp", nS)
	p.SeqLoad(e.supp.suppKey.R.Base, uint64(nS)*8, 8)
	for i := 0; i < nS; i++ {
		suppHT.InsertProbed(p, d.Supplier.SuppKey.At(i))
	}

	// Build: orders keyed by orderkey; slot = row index.
	nO := d.Orders.OrderKey.Len()
	ordHT := join.New(as, "ty.q9.ord", nO)
	p.SeqLoad(e.ord.orderKey.R.Base, uint64(nO)*8, 8)
	for i := 0; i < nO; i++ {
		ordHT.InsertProbed(p, d.Orders.OrderKey.At(i))
	}

	// Probe pass over lineitem.
	aggHT := join.New(as, "ty.q9.agg", 25*8)
	aggR := as.Alloc("ty.q9.agg.sums", 25*8*8)
	aggs := make([]int64, 0, 25*8)

	l := &d.Lineitem
	n := l.Rows()
	un := uint64(n)
	p.SeqLoad(e.li.partKey.R.Base, un*8, 8)
	for i := 0; i < n; i++ {
		if greenHT.LookupProbed(p, siteQ9Green+1, l.PartKey.At(i)) < 0 {
			continue
		}
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
		p.SparseLoad(e.li.discount.Addr(i), 8)
		p.SparseLoad(e.li.quantity.Addr(i), 8)

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
		p.Mul(2)
		p.ALU(8)
		p.Dep(2)
	}
	e.loopTail(p, un)

	var res engine.Result
	for s := 0; s < aggHT.Len(); s++ {
		res.Sum += aggs[s]
		res.AddRow(int64(s), aggs[s])
	}
	res.Rows = int64(len(aggs))
	return res
}

// Q3 is TPC-H Q3: the shipping-priority query. Orders (filtered to
// pre-cutoff dates) and BUILDING customers become hash builds, a fused
// probe pass over post-cutoff lineitem accumulates revenue per order,
// and the top 10 orders by revenue are emitted in order — the
// multi-join + ordered-output shape the SQL path plans for itself.
func (e *Engine) Q3(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	p.SetFootprint(e.costs.Footprint*4, 1)
	cutoff := tpch.DateQ3Cutoff

	// Build: orders placed before the cutoff, keyed by orderkey.
	nO := d.Orders.OrderKey.Len()
	ordHT := join.New(as, "ty.q3.ord", nO)
	ordRow := make([]int32, 0, nO)
	p.SeqLoad(e.ord.orderKey.R.Base, uint64(nO)*8, 8)
	p.SeqLoad(e.ord.orderDate.R.Base, uint64(nO)*8, 8)
	for i := 0; i < nO; i++ {
		p.ALU(1)
		pass := d.Orders.OrderDate.At(i) < cutoff
		p.BranchOp(siteQ3Ord, pass)
		if !pass {
			continue
		}
		ordHT.InsertProbed(p, d.Orders.OrderKey.At(i))
		ordRow = append(ordRow, int32(i))
	}
	e.loopTail(p, uint64(nO))

	// Build: customers in the BUILDING segment, keyed by custkey.
	nC := d.Customer.CustKey.Len()
	custHT := join.New(as, "ty.q3.cust", nC/4+8)
	p.SeqLoad(e.cust.custKey.R.Base, uint64(nC)*8, 8)
	p.SeqLoad(e.cust.mktSegment.R.Base, uint64(nC), 1)
	for i := 0; i < nC; i++ {
		p.ALU(1)
		pass := d.Customer.MktSegment.At(i) == tpch.MktSegBuilding
		p.BranchOp(siteQ3Seg, pass)
		if !pass {
			continue
		}
		custHT.InsertProbed(p, d.Customer.CustKey.At(i))
	}
	e.loopTail(p, uint64(nC))

	// Probe pass over lineitem shipped after the cutoff, grouping
	// revenue by orderkey (one group per surviving order).
	grpHT := join.New(as, "ty.q3.grp", len(ordRow)+8)
	aggR := as.Alloc("ty.q3.agg", uint64(len(ordRow)+8)*8)
	revs := make([]int64, 0, len(ordRow))
	dates := make([]int64, 0, len(ordRow))
	prios := make([]int64, 0, len(ordRow))

	l := &d.Lineitem
	n := l.Rows()
	un := uint64(n)
	p.SeqLoad(e.li.shipDate.R.Base, un*8, 8)
	p.SeqLoad(e.li.orderKey.R.Base, un*8, 8)
	for i := 0; i < n; i++ {
		p.ALU(1)
		pass := l.ShipDate.At(i) > cutoff
		p.BranchOp(siteQ3Ship, pass)
		if !pass {
			continue
		}
		oSlot := ordHT.LookupProbed(p, siteQ3Probe, l.OrderKey.At(i))
		if oSlot < 0 {
			continue
		}
		oi := int(ordRow[oSlot])
		p.Load(e.ord.custKey.Addr(oi), 8)
		if custHT.LookupProbed(p, siteQ3Probe+2, d.Orders.CustKey.At(oi)) < 0 {
			continue
		}
		p.SparseLoad(e.li.extendedPrice.Addr(i), 8)
		p.SparseLoad(e.li.discount.Addr(i), 8)
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
		p.Mul(2)
		p.ALU(4)
		p.Dep(3)
	}
	e.loopTail(p, un)

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

// Q18Top is the full TPC-H Q18 with its ordered, limited output: the
// high-cardinality group-by of Q18, the HAVING filter, the
// orders/customer join — then the 100 largest orders by totalprice
// (date ascending on ties), emitted in order.
func (e *Engine) Q18Top(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	l := &d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*3, 1)

	// Phase 1: group lineitem by orderkey; the table exceeds the LLC.
	nO := d.Orders.OrderKey.Len()
	grpHT := join.New(as, "ty.q18t.grp", nO)
	aggR := as.Alloc("ty.q18t.agg", uint64(nO)*8)
	qty := make([]int64, 0, nO)

	un := uint64(n)
	p.SeqLoad(e.li.orderKey.R.Base, un*8, 8)
	p.SeqLoad(e.li.quantity.R.Base, un*8, 8)
	for i := 0; i < n; i++ {
		slot, inserted := grpHT.LookupOrInsertProbed(p, siteQ18TopHaving, l.OrderKey.At(i))
		if inserted {
			qty = append(qty, 0)
		}
		qty[slot] += l.Quantity.At(i)
		p.Load(aggR.Base+uint64(slot)*8, 8)
		p.Store(aggR.Base+uint64(slot)*8, 8)
		p.ALU(2)
	}
	e.loopTail(p, un)

	// Phase 2: HAVING sum(quantity) > 300, join orders, project the
	// customer and order attributes of the survivors.
	ordHT := join.New(as, "ty.q18t.ord", nO)
	p.SeqLoad(e.ord.orderKey.R.Base, uint64(nO)*8, 8)
	for i := 0; i < nO; i++ {
		ordHT.InsertProbed(p, d.Orders.OrderKey.At(i))
	}
	nC := d.Customer.CustKey.Len()
	custHT := join.New(as, "ty.q18t.cust", nC)
	p.SeqLoad(e.cust.custKey.R.Base, uint64(nC)*8, 8)
	for i := 0; i < nC; i++ {
		custHT.InsertProbed(p, d.Customer.CustKey.At(i))
	}
	keys := grpHT.Keys()
	var rows []engine.TopRow
	for s := range qty {
		p.Load(aggR.Base+uint64(s)*8, 8)
		p.ALU(1)
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
	// Top 100 by totalprice desc, orderdate asc.
	return engine.SortTopRows(p, rows, 100, 2, func(a, b *engine.TopRow) bool {
		if a.Tuple[3] != b.Tuple[3] {
			return a.Tuple[3] > b.Tuple[3]
		}
		return a.Tuple[2] < b.Tuple[2]
	})
}

// Q18 is TPC-H Q18: the high-cardinality group-by. Lineitem is
// aggregated by orderkey (one group per order — millions), the HAVING
// clause keeps the rare huge orders, and the survivors join orders and
// customer.
func (e *Engine) Q18(p *probe.Probe, as *probe.AddrSpace) engine.Result {
	d := e.d
	l := &d.Lineitem
	n := l.Rows()
	p.SetFootprint(e.costs.Footprint*3, 1)

	// Phase 1: group lineitem by orderkey; the table exceeds the LLC.
	nO := d.Orders.OrderKey.Len()
	grpHT := join.New(as, "ty.q18.grp", nO)
	aggR := as.Alloc("ty.q18.agg", uint64(nO)*8)
	qty := make([]int64, 0, nO)

	un := uint64(n)
	p.SeqLoad(e.li.orderKey.R.Base, un*8, 8)
	p.SeqLoad(e.li.quantity.R.Base, un*8, 8)
	for i := 0; i < n; i++ {
		slot, inserted := grpHT.LookupOrInsertProbed(p, siteQ18Having, l.OrderKey.At(i))
		if inserted {
			qty = append(qty, 0)
		}
		qty[slot] += l.Quantity.At(i)
		p.Load(aggR.Base+uint64(slot)*8, 8)
		p.Store(aggR.Base+uint64(slot)*8, 8)
		p.ALU(2)
	}
	e.loopTail(p, un)

	// Phase 2: HAVING sum(quantity) > 300, then join orders + customer.
	ordHT := join.New(as, "ty.q18.ord", nO)
	p.SeqLoad(e.ord.orderKey.R.Base, uint64(nO)*8, 8)
	for i := 0; i < nO; i++ {
		ordHT.InsertProbed(p, d.Orders.OrderKey.At(i))
	}
	// HAVING sum(quantity) > 300 over the group table, joining the rare
	// survivors against orders (native Q18 keeps the orderkey next to
	// the aggregate; Keys exposes it per slot).
	var res engine.Result
	keys := grpHT.Keys()
	for s := range qty {
		p.Load(aggR.Base+uint64(s)*8, 8)
		p.ALU(1)
		pass := qty[s] > 300
		p.BranchOp(siteQ18Having+1, pass)
		if !pass {
			continue
		}
		ok := keys[s]
		oSlot := ordHT.LookupProbed(p, siteQ18Having+2, ok)
		if oSlot < 0 {
			continue
		}
		p.Load(e.ord.custKey.Addr(int(oSlot)), 8)
		p.Load(e.ord.totalPrice.Addr(int(oSlot)), 8)
		cust := d.Orders.CustKey.At(int(oSlot))
		res.Sum += qty[s]
		res.AddRow(cust, ok, d.Orders.TotalPrice.At(int(oSlot)), qty[s])
	}
	return res
}
