package tpch

import "olapmicro/internal/storage"

// Date representation: days since 1992-01-01 (the TPC-H epoch).
// The generator covers orders from 1992-01-01 through 1998-08-02.
const (
	// EpochYear is the calendar year of day 0.
	EpochYear = 1992
	// OrderDateSpan is the number of days orders are drawn from.
	OrderDateSpan = 2406 // 1992-01-01 .. 1998-08-02
)

// Date constants used by the TPC-H queries, as day offsets.
var (
	// DateQ1Cutoff is 1998-12-01 minus 90 days (Q1's shipdate bound).
	DateQ1Cutoff = MustDate(1998, 9, 2)
	// DateQ6Lo and DateQ6Hi bound Q6's shipdate year (1994).
	DateQ6Lo = MustDate(1994, 1, 1)
	DateQ6Hi = MustDate(1995, 1, 1)
	// DateStatusCut separates linestatus 'F' from 'O' (1995-06-17).
	DateStatusCut = MustDate(1995, 6, 17)
	// DateQ3Cutoff is Q3's order/ship date pivot (1995-03-15).
	DateQ3Cutoff = MustDate(1995, 3, 15)
)

var cumDays = [13]int{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// MustDate converts a calendar date to days since 1992-01-01.
func MustDate(y, m, d int) int64 {
	days := 0
	for yy := EpochYear; yy < y; yy++ {
		days += 365
		if isLeap(yy) {
			days++
		}
	}
	days += cumDays[m-1]
	if m > 2 && isLeap(y) {
		days++
	}
	return int64(days + d - 1)
}

// Year returns the calendar year of a day offset (used by Q9's
// GROUP BY year(o_orderdate)).
func Year(day int64) int {
	y := EpochYear
	for {
		n := int64(365)
		if isLeap(y) {
			n = 366
		}
		if day < n {
			return y
		}
		day -= n
		y++
	}
}

// Table cardinalities per unit scale factor (TPC-H specification).
const (
	SuppliersPerSF = 10_000
	CustomersPerSF = 150_000
	PartsPerSF     = 200_000
	OrdersPerSF    = 1_500_000
	NationCount    = 25
	RegionCount    = 5
)

// Nation is the 25-row nation table.
type Nation struct {
	NationKey storage.Ints
	Name      []string
	RegionKey storage.Ints
}

// Region is the 5-row region table.
type Region struct {
	RegionKey storage.Ints
	Name      []string
}

// Supplier is the supplier table (10k x SF rows).
type Supplier struct {
	SuppKey   storage.Ints
	NationKey storage.Ints
	AcctBal   storage.Ints // cents
	Name      []string
}

// Customer is the customer table (150k x SF rows).
type Customer struct {
	CustKey    storage.Ints
	NationKey  storage.Ints
	MktSegment storage.Ints // segment code, index into MktSegments
	Name       []string
}

// MktSegments are the five TPC-H market segments; Customer.MktSegment
// stores the index (Q3 filters on BUILDING = code 1).
var MktSegments = [5]string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// MktSegBuilding is the segment code Q3 selects.
const MktSegBuilding = 1

// Part is the part table (200k x SF rows).
type Part struct {
	PartKey     storage.Ints
	Name        []string     // five color words; Q9 filters '%green%'
	RetailPrice storage.Ints // cents
}

// PartSupp is the partsupp table (800k x SF rows, 4 suppliers/part).
type PartSupp struct {
	PartKey    storage.Ints
	SuppKey    storage.Ints
	AvailQty   storage.Ints
	SupplyCost storage.Ints // cents
}

// Orders is the orders table (1.5M x SF rows).
type Orders struct {
	OrderKey     storage.Ints
	CustKey      storage.Ints
	OrderDate    storage.Ints // days since epoch
	TotalPrice   storage.Ints // cents
	ShipPriority storage.Ints // 0 for every row, as dbgen generates it
}

// Lineitem is the lineitem table (~6M x SF rows).
type Lineitem struct {
	OrderKey      storage.Ints
	PartKey       storage.Ints
	SuppKey       storage.Ints
	Quantity      storage.Ints // 1..50
	ExtendedPrice storage.Ints // cents
	Discount      storage.Ints // 0..10 (hundredths)
	Tax           storage.Ints // 0..8 (hundredths)
	ShipDate      storage.Ints
	CommitDate    storage.Ints
	ReceiptDate   storage.Ints
	ReturnFlag    storage.Ints // 'R','A','N'
	LineStatus    storage.Ints // 'O','F'
}

// Rows returns the lineitem cardinality.
func (l *Lineitem) Rows() int { return l.OrderKey.Len() }

// Data is a fully generated TPC-H database; its tables are immutable
// once Generate returns. Integer columns are storage.Ints, held at the
// narrowest width their values need and read through At.
type Data struct {
	SF       float64
	Nation   Nation
	Region   Region
	Supplier Supplier
	Customer Customer
	Part     Part
	PartSupp PartSupp
	Orders   Orders
	Lineitem Lineitem
}
