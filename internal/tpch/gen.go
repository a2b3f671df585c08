package tpch

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

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
// single-core and sf = 70 for multi-core runs. Quick mode and the
// benchmark serve sf = 0.25 and most tests 0.01; all figure metrics
// are ratios that are scale-invariant once the data is out-of-cache.
//
// Generation uses every core: the five small tables build on one
// goroutine while GOMAXPROCS workers fill orders and lineitem (see
// genOrdersLineitem). Every value is a function of its row alone, so
// the database is the same, value for value, host width for host width,
// whatever GOMAXPROCS is.
func Generate(sf float64) *Data {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: invalid scale factor %v", sf))
	}
	d := &Data{SF: sf}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.genNationRegion()
		d.genSupplier()
		d.genCustomer()
		d.genPart()
		d.genPartSupp()
	}()
	d.genOrdersLineitem()
	wg.Wait()
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

// The orders stream's per-line offsets, in days from the order date
// (ship, commit) or the ship date (receipt), and its lines per order.
const (
	shipMin, shipMax       = 1, 121
	commitMin, commitMax   = 30, 90
	receiptMin, receiptMax = 1, 30
	linesMin, linesMax     = 1, 7
)

// ordersPerChunk is the orders one fill task generates.
const ordersPerChunk = 2048

// ordersChunk is one fill task: orders [first, end), whose lines start
// at lineitem row line, drawn from r, the orders stream opened at the
// chunk's first draw.
type ordersChunk struct {
	first, end, line int
	r                rng
}

// skimOrders walks the orders stream once, drawing only what decides
// how many draws an order takes: three for the order (customer, date,
// line count), eight per line, and one more for a line's return flag
// when it is received by DateStatusCut, which takes the date, the line
// count and each line's ship and receipt offsets. An order whose every
// line is received by the cut, or none is, needs no line's offsets.
// It returns each chunk's start and the lineitem row count.
func skimOrders(nOrders int) (chunks []ordersChunk, lines int) {
	r := newRNG(505)
	for i := 0; i < nOrders; i++ {
		if i%ordersPerChunk == 0 {
			chunks = append(chunks, ordersChunk{first: i, end: min(i+ordersPerChunk, nOrders), line: lines, r: *r})
		}
		r.skip(1) // customer
		date := r.intn(OrderDateSpan)
		n := int(r.between(linesMin, linesMax))
		lines += n
		switch {
		case date+shipMax+receiptMax <= DateStatusCut:
			r.skip(9 * n)
		case date+shipMin+receiptMin > DateStatusCut:
			r.skip(8 * n)
		default:
			for range n {
				r.skip(5) // quantity, part, supplier, discount, tax
				ship := date + r.between(shipMin, shipMax)
				r.skip(1) // commit
				if ship+r.between(receiptMin, receiptMax) <= DateStatusCut {
					r.skip(1) // return flag
				}
			}
		}
	}
	return chunks, lines
}

// The orders and lineitem columns, as indexes into a worker's writers.
const (
	oOrderKey = iota
	oCustKey
	oOrderDate
	oTotalPrice
	oShipPriority
	lOrderKey
	lPartKey
	lSuppKey
	lQuantity
	lExtendedPrice
	lDiscount
	lTax
	lShipDate
	lCommitDate
	lReceiptDate
	lReturnFlag
	lLineStatus
	nOrderCols
)

// colWriter is one worker's writes into one column, with the extremes
// of the values it wrote.
type colWriter struct {
	c      *storage.Ints
	lo, hi int64
}

func (w *colWriter) set(i int, x int64) {
	w.c.Set(i, x)
	w.lo, w.hi = min(w.lo, x), max(w.hi, x)
}

// orderWriters is one worker's writers into the orders and lineitem
// columns.
type orderWriters [nOrderCols]colWriter

// orderKey is order i's key: sparse like dbgen's, 8 used out of each
// 32-key block.
func orderKey(i int) int64 { return int64(i)/8*32 + int64(i)%8 + 1 }

// genOrdersLineitem builds orders and lineitem in parallel and exactly:
// skimOrders finds every chunk's first draw and first lineitem row, each
// column is allocated once at its exact length and at the width of its
// domain, GOMAXPROCS workers fill the chunks by row index, and each
// column is sealed with the extremes its workers saw. The customer,
// part and supplier counts come from the scale factor, not from those
// tables, which another goroutine is building.
func (d *Data) genOrdersLineitem() {
	nOrders := scale(d.SF, OrdersPerSF)
	customers := int64(scale(d.SF, CustomersPerSF))
	parts := int64(scale(d.SF, PartsPerSF))
	supps := int64(scale(d.SF, SuppliersPerSF))
	chunks, nLines := skimOrders(nOrders)

	// The largest price any part can take (retailPrice's three terms at
	// their maxima) bounds the price domains; Seal narrows a column
	// whose values fall short of its domain's width.
	const maxPrice = 50 * (90000 + 20000 + 100*999) / 10
	lastDate := int64(OrderDateSpan - 1)
	o, l := &d.Orders, &d.Lineitem
	cols := [nOrderCols]struct {
		c      *storage.Ints
		n      int
		lo, hi int64
	}{
		oOrderKey:      {&o.OrderKey, nOrders, 1, orderKey(nOrders - 1)},
		oCustKey:       {&o.CustKey, nOrders, 1, customers},
		oOrderDate:     {&o.OrderDate, nOrders, 0, lastDate},
		oTotalPrice:    {&o.TotalPrice, nOrders, 0, linesMax * maxPrice},
		oShipPriority:  {&o.ShipPriority, nOrders, 0, 0},
		lOrderKey:      {&l.OrderKey, nLines, 1, orderKey(nOrders - 1)},
		lPartKey:       {&l.PartKey, nLines, 1, parts},
		lSuppKey:       {&l.SuppKey, nLines, 1, supps},
		lQuantity:      {&l.Quantity, nLines, 1, 50},
		lExtendedPrice: {&l.ExtendedPrice, nLines, 0, maxPrice},
		lDiscount:      {&l.Discount, nLines, 0, 10},
		lTax:           {&l.Tax, nLines, 0, 8},
		lShipDate:      {&l.ShipDate, nLines, shipMin, lastDate + shipMax},
		lCommitDate:    {&l.CommitDate, nLines, commitMin, lastDate + commitMax},
		lReceiptDate:   {&l.ReceiptDate, nLines, shipMin + receiptMin, lastDate + shipMax + receiptMax},
		lReturnFlag:    {&l.ReturnFlag, nLines, 'A', 'R'},
		lLineStatus:    {&l.LineStatus, nLines, 'F', 'O'},
	}
	var empty orderWriters
	for k, col := range cols {
		*col.c = storage.SizedInts(col.n, col.lo, col.hi)
		empty[k] = colWriter{c: col.c, lo: math.MaxInt64, hi: math.MinInt64}
	}

	ws := make([]orderWriters, min(runtime.GOMAXPROCS(0), len(chunks)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := empty // a private copy: the writers' extremes change per value
			for ci := int(next.Add(1)) - 1; ci < len(chunks); ci = int(next.Add(1)) - 1 {
				w.fill(chunks[ci], customers, parts, supps)
			}
			ws[t] = w
		}()
	}
	wg.Wait()
	for k, col := range cols {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for t := range ws {
			lo, hi = min(lo, ws[t][k].lo), max(hi, ws[t][k].hi)
		}
		col.c.Seal(lo, hi)
	}
}

// fill generates one chunk's orders and their lines.
func (w *orderWriters) fill(c ordersChunk, customers, parts, supps int64) {
	r, line := c.r, c.line
	for i := c.first; i < c.end; i++ {
		key := orderKey(i)
		w[oOrderKey].set(i, key)
		w[oCustKey].set(i, r.intn(customers)+1)
		orderDate := r.intn(OrderDateSpan)
		w[oOrderDate].set(i, orderDate)
		w[oShipPriority].set(i, 0) // dbgen emits a constant 0

		nLines := int(r.between(linesMin, linesMax))
		var total int64
		for range nLines {
			qty := r.between(1, 50)
			partKey := r.intn(parts) + 1
			// One of the part's four suppliers, consistent with partsupp.
			j := r.intn(4)
			suppKey := (partKey-1+j*(supps/4+(partKey-1)/supps))%supps + 1
			price := qty * retailPrice(partKey) / 10
			disc := r.between(0, 10)
			tax := r.between(0, 8)
			ship := orderDate + r.between(shipMin, shipMax)
			commit := orderDate + r.between(commitMin, commitMax)
			receipt := ship + r.between(receiptMin, receiptMax)

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

			w[lOrderKey].set(line, key)
			w[lPartKey].set(line, partKey)
			w[lSuppKey].set(line, suppKey)
			w[lQuantity].set(line, qty)
			w[lExtendedPrice].set(line, price)
			w[lDiscount].set(line, disc)
			w[lTax].set(line, tax)
			w[lShipDate].set(line, ship)
			w[lCommitDate].set(line, commit)
			w[lReceiptDate].set(line, receipt)
			w[lReturnFlag].set(line, rf)
			w[lLineStatus].set(line, ls)
			total += price
			line++
		}
		w[oTotalPrice].set(i, total)
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
