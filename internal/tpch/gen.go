package tpch

import (
	"fmt"
	"slices"
	"strconv"

	"olapmicro/internal/storage"
)

var nationNames = [NationCount]string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
	"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
	"IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
	"SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

var nationRegion = [NationCount]int64{
	0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
}

var regionNames = [RegionCount]string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// colorWords is the TPC-H P_NAME word pool (subset); part names are
// five words drawn from it, so '%green%' matches roughly 1/18 of
// parts, close to dbgen's ~5.4 % Q9 part selectivity.
var colorWords = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
	"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
	"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
	"hot", "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
	"light", "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
	"mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
	"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
	"purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy",
	"seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel",
	"tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
}

// Generate builds a complete TPC-H database at scale factor sf.
// sf = 1 is the standard 1 GB database; the paper uses sf = 5 for
// single-core and sf = 70 for multi-core runs. Tests and benches in
// this repo default to small fractions (0.01-0.1); all figure metrics
// are ratios that are scale-invariant once the data is out-of-cache.
// Every integer column is built by Append, which picks its host width
// and records its extremes as the values arrive.
func Generate(sf float64) *Data {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: invalid scale factor %v", sf))
	}
	d := &Data{SF: sf}
	d.genNationRegion()
	d.genSupplier()
	d.genCustomer()
	d.genPart()
	d.genPartSupp()
	d.genOrdersLineitem()
	return d
}

func scale(sf float64, base int) int {
	n := int(sf * float64(base))
	if n < 1 {
		n = 1
	}
	return n
}

func (d *Data) genNationRegion() {
	n := &d.Nation
	n.NationKey = storage.MakeInts(NationCount)
	n.Name = make([]string, NationCount)
	n.RegionKey = storage.MakeInts(NationCount)
	for i := 0; i < NationCount; i++ {
		n.NationKey.Append(int64(i))
		n.Name[i] = nationNames[i]
		n.RegionKey.Append(nationRegion[i])
	}
	r := &d.Region
	r.RegionKey = storage.MakeInts(RegionCount)
	r.Name = make([]string, RegionCount)
	for i := 0; i < RegionCount; i++ {
		r.RegionKey.Append(int64(i))
		r.Name[i] = regionNames[i]
	}
}

func (d *Data) genSupplier() {
	n := scale(d.SF, SuppliersPerSF)
	s := &d.Supplier
	s.SuppKey = storage.MakeInts(n)
	s.NationKey = storage.MakeInts(n)
	s.AcctBal = storage.MakeInts(n)
	s.Name = make([]string, n)
	r := newRNG(101)
	for i := 0; i < n; i++ {
		s.SuppKey.Append(int64(i + 1))
		s.NationKey.Append(r.intn(NationCount))
		s.AcctBal.Append(r.between(-99999, 999999)) // cents
		s.Name[i] = "Supplier#" + pad9(i+1)
	}
}

func (d *Data) genCustomer() {
	n := scale(d.SF, CustomersPerSF)
	c := &d.Customer
	c.CustKey = storage.MakeInts(n)
	c.NationKey = storage.MakeInts(n)
	c.MktSegment = storage.MakeInts(n)
	c.Name = make([]string, n)
	r := newRNG(202)
	// The segment column draws from its own stream so adding it did not
	// shift the nation-key sequence existing results depend on.
	rSeg := newRNG(203)
	for i := 0; i < n; i++ {
		c.CustKey.Append(int64(i + 1))
		c.NationKey.Append(r.intn(NationCount))
		c.MktSegment.Append(rSeg.intn(int64(len(MktSegments))))
		c.Name[i] = "Customer#" + pad9(i+1)
	}
}

func (d *Data) genPart() {
	n := scale(d.SF, PartsPerSF)
	p := &d.Part
	p.PartKey = storage.MakeInts(n)
	p.Name = make([]string, n)
	p.RetailPrice = storage.MakeInts(n)
	r := newRNG(303)
	for i := 0; i < n; i++ {
		p.PartKey.Append(int64(i + 1))
		p.Name[i] = partName(r)
		p.RetailPrice.Append(retailPrice(int64(i + 1)))
	}
}

// retailPrice is TPC-H's P_RETAILPRICE of a part key, in cents:
// 90000 + (partkey/10 mod 20001) + 100*(partkey mod 1000).
func retailPrice(k int64) int64 { return 90000 + (k/10)%20001 + 100*(k%1000) }

func partName(r *rng) string {
	// Five distinct-ish color words joined by spaces.
	s := colorWords[r.intn(int64(len(colorWords)))]
	for w := 0; w < 4; w++ {
		s += " " + colorWords[r.intn(int64(len(colorWords)))]
	}
	return s
}

func (d *Data) genPartSupp() {
	parts := d.Part.PartKey.Len()
	supps := int64(d.Supplier.SuppKey.Len())
	n := parts * 4
	ps := &d.PartSupp
	ps.PartKey = storage.MakeInts(n)
	ps.SuppKey = storage.MakeInts(n)
	ps.AvailQty = storage.MakeInts(n)
	ps.SupplyCost = storage.MakeInts(n)
	r := newRNG(404)
	for i := 0; i < parts; i++ {
		for j := 0; j < 4; j++ {
			ps.PartKey.Append(int64(i + 1))
			// The TPC-H supplier spreading formula keeps (part,supp)
			// pairs unique and suppliers uniformly loaded.
			ps.SuppKey.Append((int64(i)+int64(j)*(supps/4+int64(i)/supps))%supps + 1)
			ps.AvailQty.Append(r.between(1, 9999))
			ps.SupplyCost.Append(r.between(100, 100000)) // cents
		}
	}
}

func (d *Data) genOrdersLineitem() {
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

func pad9(n int) string {
	s := strconv.Itoa(n)
	for len(s) < 9 {
		s = "0" + s
	}
	return s
}

// SortedCopy returns a copy of an integer column with its values in
// ascending order, at the narrowest width that holds them, leaving the
// column as it is: the input QuantileSorted indexes.
func SortedCopy(col *storage.Ints) *storage.Ints {
	v := col.Int64s()
	slices.Sort(v)
	sorted := storage.MakeInts(len(v))
	for _, x := range v {
		sorted.Append(x)
	}
	return &sorted
}

// QuantileSorted returns the q-quantile (0..1) of a column whose values
// are in ascending order (SortedCopy), 0 for none: one lookup, so
// cutoffs for many selectivities sort once. The selection
// micro-benchmark uses it to derive predicate cutoffs with exact
// selectivities.
func QuantileSorted(sorted *storage.Ints, q float64) int64 {
	n := sorted.Len()
	if n == 0 {
		return 0
	}
	return sorted.At(min(max(int(q*float64(n)), 0), n-1))
}
