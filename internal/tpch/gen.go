package tpch

import (
	"fmt"
	"slices"
	"strconv"
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
func Generate(sf float64) *Data {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: invalid scale factor %v", sf))
	}
	d := &Data{SF: sf, extremes: make(map[string][2]int64)}
	d.genNationRegion()
	d.genSupplier()
	d.genCustomer()
	d.genPart()
	d.genPartSupp()
	d.genOrdersLineitem()
	return d
}

// Extremes reports the smallest and largest value present in the named
// int64 or byte column (ok is false for an empty column or any other
// name). The database is immutable, so a column is scanned for the
// first plan that asks and never again — not at Generate, where a pass
// over every column would cost each process start a sixth of its
// generation time.
func (d *Data) Extremes(name string) (mn, mx int64, ok bool) {
	d.extremesMu.Lock()
	defer d.extremesMu.Unlock()
	if e, hit := d.extremes[name]; hit {
		return e[0], e[1], true
	}
	if _, c, found := SchemaColumn(name); found {
		switch c.Kind {
		case KindI64:
			mn, mx, ok = MinMax(c.I64(d))
		case KindI8:
			mn, mx, ok = MinMax(c.I8(d))
		}
		if ok {
			d.extremes[name] = [2]int64{mn, mx}
		}
	}
	return mn, mx, ok
}

// MinMax scans v for its extremes; ok is false when v is empty.
func MinMax[T int64 | byte](v []T) (mn, mx int64, ok bool) {
	if len(v) == 0 {
		return 0, 0, false
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return int64(lo), int64(hi), true
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
	n.NationKey = make([]int64, NationCount)
	n.Name = make([]string, NationCount)
	n.RegionKey = make([]int64, NationCount)
	for i := 0; i < NationCount; i++ {
		n.NationKey[i] = int64(i)
		n.Name[i] = nationNames[i]
		n.RegionKey[i] = nationRegion[i]
	}
	r := &d.Region
	r.RegionKey = make([]int64, RegionCount)
	r.Name = make([]string, RegionCount)
	for i := 0; i < RegionCount; i++ {
		r.RegionKey[i] = int64(i)
		r.Name[i] = regionNames[i]
	}
}

func (d *Data) genSupplier() {
	n := scale(d.SF, SuppliersPerSF)
	s := &d.Supplier
	s.SuppKey = make([]int64, n)
	s.NationKey = make([]int64, n)
	s.AcctBal = make([]int64, n)
	s.Name = make([]string, n)
	r := newRNG(101)
	for i := 0; i < n; i++ {
		s.SuppKey[i] = int64(i + 1)
		s.NationKey[i] = r.intn(NationCount)
		s.AcctBal[i] = r.between(-99999, 999999) // cents
		s.Name[i] = "Supplier#" + pad9(i+1)
	}
}

func (d *Data) genCustomer() {
	n := scale(d.SF, CustomersPerSF)
	c := &d.Customer
	c.CustKey = make([]int64, n)
	c.NationKey = make([]int64, n)
	c.MktSegment = make([]byte, n)
	c.Name = make([]string, n)
	r := newRNG(202)
	// The segment column draws from its own stream so adding it did not
	// shift the nation-key sequence existing results depend on.
	rSeg := newRNG(203)
	for i := 0; i < n; i++ {
		c.CustKey[i] = int64(i + 1)
		c.NationKey[i] = r.intn(NationCount)
		c.MktSegment[i] = byte(rSeg.intn(int64(len(MktSegments))))
		c.Name[i] = "Customer#" + pad9(i+1)
	}
}

func (d *Data) genPart() {
	n := scale(d.SF, PartsPerSF)
	p := &d.Part
	p.PartKey = make([]int64, n)
	p.Name = make([]string, n)
	p.RetailPrice = make([]int64, n)
	r := newRNG(303)
	for i := 0; i < n; i++ {
		p.PartKey[i] = int64(i + 1)
		p.Name[i] = partName(r)
		// 90000 + (partkey/10 mod 20001) + 100*(partkey mod 1000), in cents.
		k := int64(i + 1)
		p.RetailPrice[i] = 90000 + (k/10)%20001 + 100*(k%1000)
	}
}

func partName(r *rng) string {
	// Five distinct-ish color words joined by spaces.
	s := colorWords[r.intn(int64(len(colorWords)))]
	for w := 0; w < 4; w++ {
		s += " " + colorWords[r.intn(int64(len(colorWords)))]
	}
	return s
}

func (d *Data) genPartSupp() {
	parts := len(d.Part.PartKey)
	supps := int64(len(d.Supplier.SuppKey))
	n := parts * 4
	ps := &d.PartSupp
	ps.PartKey = make([]int64, n)
	ps.SuppKey = make([]int64, n)
	ps.AvailQty = make([]int64, n)
	ps.SupplyCost = make([]int64, n)
	r := newRNG(404)
	for i := 0; i < parts; i++ {
		for j := 0; j < 4; j++ {
			idx := i*4 + j
			ps.PartKey[idx] = int64(i + 1)
			// The TPC-H supplier spreading formula keeps (part,supp)
			// pairs unique and suppliers uniformly loaded.
			ps.SuppKey[idx] = (int64(i)+int64(j)*(supps/4+int64(i)/supps))%supps + 1
			ps.AvailQty[idx] = r.between(1, 9999)
			ps.SupplyCost[idx] = r.between(100, 100000) // cents
		}
	}
}

func (d *Data) genOrdersLineitem() {
	nOrders := scale(d.SF, OrdersPerSF)
	customers := int64(len(d.Customer.CustKey))
	parts := int64(len(d.Part.PartKey))
	supps := int64(len(d.Supplier.SuppKey))

	o := &d.Orders
	o.OrderKey = make([]int64, nOrders)
	o.CustKey = make([]int64, nOrders)
	o.OrderDate = make([]int64, nOrders)
	o.TotalPrice = make([]int64, nOrders)
	o.ShipPriority = make([]int64, nOrders) // dbgen emits a constant 0

	l := &d.Lineitem
	estLines := nOrders * 4
	l.OrderKey = make([]int64, 0, estLines)
	l.PartKey = make([]int64, 0, estLines)
	l.SuppKey = make([]int64, 0, estLines)
	l.Quantity = make([]int64, 0, estLines)
	l.ExtendedPrice = make([]int64, 0, estLines)
	l.Discount = make([]int64, 0, estLines)
	l.Tax = make([]int64, 0, estLines)
	l.ShipDate = make([]int64, 0, estLines)
	l.CommitDate = make([]int64, 0, estLines)
	l.ReceiptDate = make([]int64, 0, estLines)
	l.ReturnFlag = make([]byte, 0, estLines)
	l.LineStatus = make([]byte, 0, estLines)

	r := newRNG(505)
	for i := 0; i < nOrders; i++ {
		// Sparse order keys like dbgen (8 used out of each 32-key block).
		block := int64(i) / 8
		off := int64(i) % 8
		orderKey := block*32 + off + 1
		o.OrderKey[i] = orderKey
		o.CustKey[i] = r.intn(customers) + 1
		orderDate := r.intn(OrderDateSpan)
		o.OrderDate[i] = orderDate

		nLines := int(r.between(1, 7))
		var total int64
		for li := 0; li < nLines; li++ {
			qty := r.between(1, 50)
			partKey := r.intn(parts) + 1
			// One of the part's four suppliers, consistent with partsupp.
			j := r.intn(4)
			suppKey := (partKey-1+j*(supps/4+(partKey-1)/supps))%supps + 1
			price := qty * d.Part.RetailPrice[partKey-1] / 10
			disc := r.between(0, 10)
			tax := r.between(0, 8)
			ship := orderDate + r.between(1, 121)
			commit := orderDate + r.between(30, 90)
			receipt := ship + r.between(1, 30)

			var rf byte = 'N'
			if receipt <= DateStatusCut {
				if r.intn(2) == 0 {
					rf = 'R'
				} else {
					rf = 'A'
				}
			}
			var ls byte = 'O'
			if ship <= DateStatusCut {
				ls = 'F'
			}

			l.OrderKey = append(l.OrderKey, orderKey)
			l.PartKey = append(l.PartKey, partKey)
			l.SuppKey = append(l.SuppKey, suppKey)
			l.Quantity = append(l.Quantity, qty)
			l.ExtendedPrice = append(l.ExtendedPrice, price)
			l.Discount = append(l.Discount, disc)
			l.Tax = append(l.Tax, tax)
			l.ShipDate = append(l.ShipDate, ship)
			l.CommitDate = append(l.CommitDate, commit)
			l.ReceiptDate = append(l.ReceiptDate, receipt)
			l.ReturnFlag = append(l.ReturnFlag, rf)
			l.LineStatus = append(l.LineStatus, ls)
			total += price
		}
		o.TotalPrice[i] = total
	}
}

func pad9(n int) string {
	s := strconv.Itoa(n)
	for len(s) < 9 {
		s = "0" + s
	}
	return s
}

// Quantile returns the q-quantile (0..1) of an int64 column without
// modifying it. The selection micro-benchmark uses it to derive
// predicate cutoffs with exact selectivities.
func Quantile(col []int64, q float64) int64 {
	if len(col) == 0 {
		return 0
	}
	cp := make([]int64, len(col))
	copy(cp, col)
	slices.Sort(cp)
	idx := int(q * float64(len(cp)))
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return cp[idx]
}
