package tpch

import "olapmicro/internal/storage"

// The catalog describes the generated schema as data: every table with
// its columns, kinds and accessors. The SQL front end binds names
// against it and the engines bind every column to a simulated address
// region through it, so adding a column here makes it queryable
// everywhere at once.

// ColKind is a column's storage type.
type ColKind int

const (
	// KindI64 is a 64-bit integer column (keys, dates as day offsets,
	// monetary values as cents, percentages as hundredths).
	KindI64 ColKind = iota
	// KindI8 is a single-byte column (flags).
	KindI8
	// KindStr is a variable-length string column.
	KindStr
)

// String names the kind the way EXPLAIN prints it.
func (k ColKind) String() string {
	switch k {
	case KindI64:
		return "int64"
	case KindI8:
		return "int8"
	case KindStr:
		return "string"
	}
	return "?"
}

// ColumnMeta describes one column: its SQL name, kind, and an accessor
// into a generated database. Integer columns (KindI64, KindI8) have
// Ints, string columns Str. A KindI64 column also has I64, a widened
// copy of its values for callers outside the engines.
type ColumnMeta struct {
	Name string
	Kind ColKind
	Ints func(*Data) *storage.Ints
	I64  func(*Data) []int64
	Str  func(*Data) []string
}

// intCol describes an integer column of kind k whose values f returns.
func intCol(name string, k ColKind, f func(*Data) *storage.Ints) ColumnMeta {
	c := ColumnMeta{Name: name, Kind: k, Ints: f}
	if k == KindI64 {
		c.I64 = func(d *Data) []int64 { return f(d).Int64s() }
	}
	return c
}

// TableMeta describes one table.
type TableMeta struct {
	Name string
	Cols []ColumnMeta
	Rows func(*Data) int
}

// Column finds a column by name.
func (t TableMeta) Column(name string) (ColumnMeta, bool) {
	for _, c := range t.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return ColumnMeta{}, false
}

// Schema returns the full TPC-H catalog in generation order. The
// catalog is one package-level value, built once: callers only read it.
func Schema() []TableMeta { return schema }

var schema = []TableMeta{
	{
		Name: "nation",
		Rows: func(d *Data) int { return d.Nation.NationKey.Len() },
		Cols: []ColumnMeta{
			intCol("n_nationkey", KindI64, func(d *Data) *storage.Ints { return &d.Nation.NationKey }),
			intCol("n_regionkey", KindI64, func(d *Data) *storage.Ints { return &d.Nation.RegionKey }),
			{Name: "n_name", Kind: KindStr, Str: func(d *Data) []string { return d.Nation.Name }},
		},
	},
	{
		Name: "region",
		Rows: func(d *Data) int { return d.Region.RegionKey.Len() },
		Cols: []ColumnMeta{
			intCol("r_regionkey", KindI64, func(d *Data) *storage.Ints { return &d.Region.RegionKey }),
			{Name: "r_name", Kind: KindStr, Str: func(d *Data) []string { return d.Region.Name }},
		},
	},
	{
		Name: "supplier",
		Rows: func(d *Data) int { return d.Supplier.SuppKey.Len() },
		Cols: []ColumnMeta{
			intCol("s_suppkey", KindI64, func(d *Data) *storage.Ints { return &d.Supplier.SuppKey }),
			intCol("s_nationkey", KindI64, func(d *Data) *storage.Ints { return &d.Supplier.NationKey }),
			intCol("s_acctbal", KindI64, func(d *Data) *storage.Ints { return &d.Supplier.AcctBal }),
			{Name: "s_name", Kind: KindStr, Str: func(d *Data) []string { return d.Supplier.Name }},
		},
	},
	{
		Name: "customer",
		Rows: func(d *Data) int { return d.Customer.CustKey.Len() },
		Cols: []ColumnMeta{
			intCol("c_custkey", KindI64, func(d *Data) *storage.Ints { return &d.Customer.CustKey }),
			intCol("c_nationkey", KindI64, func(d *Data) *storage.Ints { return &d.Customer.NationKey }),
			intCol("c_mktsegment", KindI8, func(d *Data) *storage.Ints { return &d.Customer.MktSegment }),
			{Name: "c_name", Kind: KindStr, Str: func(d *Data) []string { return d.Customer.Name }},
		},
	},
	{
		Name: "part",
		Rows: func(d *Data) int { return d.Part.PartKey.Len() },
		Cols: []ColumnMeta{
			intCol("p_partkey", KindI64, func(d *Data) *storage.Ints { return &d.Part.PartKey }),
			intCol("p_retailprice", KindI64, func(d *Data) *storage.Ints { return &d.Part.RetailPrice }),
			{Name: "p_name", Kind: KindStr, Str: func(d *Data) []string { return d.Part.Name }},
		},
	},
	{
		Name: "partsupp",
		Rows: func(d *Data) int { return d.PartSupp.PartKey.Len() },
		Cols: []ColumnMeta{
			intCol("ps_partkey", KindI64, func(d *Data) *storage.Ints { return &d.PartSupp.PartKey }),
			intCol("ps_suppkey", KindI64, func(d *Data) *storage.Ints { return &d.PartSupp.SuppKey }),
			intCol("ps_availqty", KindI64, func(d *Data) *storage.Ints { return &d.PartSupp.AvailQty }),
			intCol("ps_supplycost", KindI64, func(d *Data) *storage.Ints { return &d.PartSupp.SupplyCost }),
		},
	},
	{
		Name: "orders",
		Rows: func(d *Data) int { return d.Orders.OrderKey.Len() },
		Cols: []ColumnMeta{
			intCol("o_orderkey", KindI64, func(d *Data) *storage.Ints { return &d.Orders.OrderKey }),
			intCol("o_custkey", KindI64, func(d *Data) *storage.Ints { return &d.Orders.CustKey }),
			intCol("o_orderdate", KindI64, func(d *Data) *storage.Ints { return &d.Orders.OrderDate }),
			intCol("o_totalprice", KindI64, func(d *Data) *storage.Ints { return &d.Orders.TotalPrice }),
			intCol("o_shippriority", KindI64, func(d *Data) *storage.Ints { return &d.Orders.ShipPriority }),
		},
	},
	{
		Name: "lineitem",
		Rows: func(d *Data) int { return d.Lineitem.Rows() },
		Cols: []ColumnMeta{
			intCol("l_orderkey", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.OrderKey }),
			intCol("l_partkey", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.PartKey }),
			intCol("l_suppkey", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.SuppKey }),
			intCol("l_quantity", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.Quantity }),
			intCol("l_extendedprice", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.ExtendedPrice }),
			intCol("l_discount", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.Discount }),
			intCol("l_tax", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.Tax }),
			intCol("l_shipdate", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.ShipDate }),
			intCol("l_commitdate", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.CommitDate }),
			intCol("l_receiptdate", KindI64, func(d *Data) *storage.Ints { return &d.Lineitem.ReceiptDate }),
			intCol("l_returnflag", KindI8, func(d *Data) *storage.Ints { return &d.Lineitem.ReturnFlag }),
			intCol("l_linestatus", KindI8, func(d *Data) *storage.Ints { return &d.Lineitem.LineStatus }),
		},
	},
}

// SchemaTable finds a table by name.
func SchemaTable(name string) (TableMeta, bool) {
	for _, t := range Schema() {
		if t.Name == name {
			return t, true
		}
	}
	return TableMeta{}, false
}

// SchemaColumn finds a column by name across all tables, returning its
// table. TPC-H column names carry their table prefix, so names are
// globally unique.
func SchemaColumn(name string) (TableMeta, ColumnMeta, bool) {
	for _, t := range Schema() {
		if c, ok := t.Column(name); ok {
			return t, c, true
		}
	}
	return TableMeta{}, ColumnMeta{}, false
}
