package tpch

import (
	"fmt"

	"olapmicro/internal/storage"
)

// This file keeps the sequential generator the parallel one replaced,
// renamed but otherwise unchanged, as the oracle
// TestGenerateMatchesReference compares Generate against: every
// column's values, host width and extremes, at every scale factor and
// GOMAXPROCS. The small tables' generators did not change and are
// shared; the orders and lineitem generator built every column by
// Append, one order after another.

// refGenerate is Generate as it was: every table one after another on
// the calling goroutine.
func refGenerate(sf float64) *Data {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: invalid scale factor %v", sf))
	}
	d := &Data{SF: sf}
	d.genNationRegion()
	d.genSupplier()
	d.genCustomer()
	d.genPart()
	d.genPartSupp()
	d.refGenOrdersLineitem()
	return d
}

// refGenOrdersLineitem draws each order and its lines in turn and
// appends them.
func (d *Data) refGenOrdersLineitem() {
	nOrders := scale(d.SF, OrdersPerSF)
	customers := int64(d.Customer.CustKey.Len())
	parts := int64(d.Part.PartKey.Len())
	supps := int64(d.Supplier.SuppKey.Len())

	o := &d.Orders
	o.OrderKey = storage.MakeInts(nOrders)
	o.CustKey = storage.MakeInts(nOrders)
	o.OrderDate = storage.MakeInts(nOrders)
	o.TotalPrice = storage.MakeInts(nOrders)
	o.ShipPriority = storage.MakeInts(nOrders)

	l := &d.Lineitem
	estLines := nOrders * 4
	l.OrderKey = storage.MakeInts(estLines)
	l.PartKey = storage.MakeInts(estLines)
	l.SuppKey = storage.MakeInts(estLines)
	l.Quantity = storage.MakeInts(estLines)
	l.ExtendedPrice = storage.MakeInts(estLines)
	l.Discount = storage.MakeInts(estLines)
	l.Tax = storage.MakeInts(estLines)
	l.ShipDate = storage.MakeInts(estLines)
	l.CommitDate = storage.MakeInts(estLines)
	l.ReceiptDate = storage.MakeInts(estLines)
	l.ReturnFlag = storage.MakeInts(estLines)
	l.LineStatus = storage.MakeInts(estLines)

	r := newRNG(505)
	for i := 0; i < nOrders; i++ {
		// Sparse order keys like dbgen (8 used out of each 32-key block).
		block := int64(i) / 8
		off := int64(i) % 8
		orderKey := block*32 + off + 1
		o.OrderKey.Append(orderKey)
		o.CustKey.Append(r.intn(customers) + 1)
		orderDate := r.intn(OrderDateSpan)
		o.OrderDate.Append(orderDate)
		o.ShipPriority.Append(0) // dbgen emits a constant 0

		nLines := int(r.between(1, 7))
		var total int64
		for li := 0; li < nLines; li++ {
			qty := r.between(1, 50)
			partKey := r.intn(parts) + 1
			// One of the part's four suppliers, consistent with partsupp.
			j := r.intn(4)
			suppKey := (partKey-1+j*(supps/4+(partKey-1)/supps))%supps + 1
			price := qty * retailPrice(partKey) / 10
			disc := r.between(0, 10)
			tax := r.between(0, 8)
			ship := orderDate + r.between(1, 121)
			commit := orderDate + r.between(30, 90)
			receipt := ship + r.between(1, 30)

			var rf int64 = 'N'
			if receipt <= DateStatusCut {
				if r.intn(2) == 0 {
					rf = 'R'
				} else {
					rf = 'A'
				}
			}
			var ls int64 = 'O'
			if ship <= DateStatusCut {
				ls = 'F'
			}

			l.OrderKey.Append(orderKey)
			l.PartKey.Append(partKey)
			l.SuppKey.Append(suppKey)
			l.Quantity.Append(qty)
			l.ExtendedPrice.Append(price)
			l.Discount.Append(disc)
			l.Tax.Append(tax)
			l.ShipDate.Append(ship)
			l.CommitDate.Append(commit)
			l.ReceiptDate.Append(receipt)
			l.ReturnFlag.Append(rf)
			l.LineStatus.Append(ls)
			total += price
		}
		o.TotalPrice.Append(total)
	}
}
