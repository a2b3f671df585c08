package tpch

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
// into a generated database. Exactly one accessor is non-nil.
type ColumnMeta struct {
	Name string
	Kind ColKind
	I64  func(*Data) []int64
	I8   func(*Data) []byte
	Str  func(*Data) []string
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
		Rows: func(d *Data) int { return len(d.Nation.NationKey) },
		Cols: []ColumnMeta{
			{Name: "n_nationkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Nation.NationKey }},
			{Name: "n_regionkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Nation.RegionKey }},
			{Name: "n_name", Kind: KindStr, Str: func(d *Data) []string { return d.Nation.Name }},
		},
	},
	{
		Name: "region",
		Rows: func(d *Data) int { return len(d.Region.RegionKey) },
		Cols: []ColumnMeta{
			{Name: "r_regionkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Region.RegionKey }},
			{Name: "r_name", Kind: KindStr, Str: func(d *Data) []string { return d.Region.Name }},
		},
	},
	{
		Name: "supplier",
		Rows: func(d *Data) int { return len(d.Supplier.SuppKey) },
		Cols: []ColumnMeta{
			{Name: "s_suppkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Supplier.SuppKey }},
			{Name: "s_nationkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Supplier.NationKey }},
			{Name: "s_acctbal", Kind: KindI64, I64: func(d *Data) []int64 { return d.Supplier.AcctBal }},
			{Name: "s_name", Kind: KindStr, Str: func(d *Data) []string { return d.Supplier.Name }},
		},
	},
	{
		Name: "customer",
		Rows: func(d *Data) int { return len(d.Customer.CustKey) },
		Cols: []ColumnMeta{
			{Name: "c_custkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Customer.CustKey }},
			{Name: "c_nationkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Customer.NationKey }},
			{Name: "c_mktsegment", Kind: KindI8, I8: func(d *Data) []byte { return d.Customer.MktSegment }},
			{Name: "c_name", Kind: KindStr, Str: func(d *Data) []string { return d.Customer.Name }},
		},
	},
	{
		Name: "part",
		Rows: func(d *Data) int { return len(d.Part.PartKey) },
		Cols: []ColumnMeta{
			{Name: "p_partkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Part.PartKey }},
			{Name: "p_retailprice", Kind: KindI64, I64: func(d *Data) []int64 { return d.Part.RetailPrice }},
			{Name: "p_name", Kind: KindStr, Str: func(d *Data) []string { return d.Part.Name }},
		},
	},
	{
		Name: "partsupp",
		Rows: func(d *Data) int { return len(d.PartSupp.PartKey) },
		Cols: []ColumnMeta{
			{Name: "ps_partkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.PartSupp.PartKey }},
			{Name: "ps_suppkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.PartSupp.SuppKey }},
			{Name: "ps_availqty", Kind: KindI64, I64: func(d *Data) []int64 { return d.PartSupp.AvailQty }},
			{Name: "ps_supplycost", Kind: KindI64, I64: func(d *Data) []int64 { return d.PartSupp.SupplyCost }},
		},
	},
	{
		Name: "orders",
		Rows: func(d *Data) int { return len(d.Orders.OrderKey) },
		Cols: []ColumnMeta{
			{Name: "o_orderkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Orders.OrderKey }},
			{Name: "o_custkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Orders.CustKey }},
			{Name: "o_orderdate", Kind: KindI64, I64: func(d *Data) []int64 { return d.Orders.OrderDate }},
			{Name: "o_totalprice", Kind: KindI64, I64: func(d *Data) []int64 { return d.Orders.TotalPrice }},
			{Name: "o_shippriority", Kind: KindI64, I64: func(d *Data) []int64 { return d.Orders.ShipPriority }},
		},
	},
	{
		Name: "lineitem",
		Rows: func(d *Data) int { return d.Lineitem.Rows() },
		Cols: []ColumnMeta{
			{Name: "l_orderkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.OrderKey }},
			{Name: "l_partkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.PartKey }},
			{Name: "l_suppkey", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.SuppKey }},
			{Name: "l_quantity", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.Quantity }},
			{Name: "l_extendedprice", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.ExtendedPrice }},
			{Name: "l_discount", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.Discount }},
			{Name: "l_tax", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.Tax }},
			{Name: "l_shipdate", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.ShipDate }},
			{Name: "l_commitdate", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.CommitDate }},
			{Name: "l_receiptdate", Kind: KindI64, I64: func(d *Data) []int64 { return d.Lineitem.ReceiptDate }},
			{Name: "l_returnflag", Kind: KindI8, I8: func(d *Data) []byte { return d.Lineitem.ReturnFlag }},
			{Name: "l_linestatus", Kind: KindI8, I8: func(d *Data) []byte { return d.Lineitem.LineStatus }},
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
