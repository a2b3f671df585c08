// Package relop defines the engine-neutral physical plan the SQL
// subsystem lowers queries onto: a driving scan with an optional
// pushed-down filter, a chain of equi-hash-joins, and a (grouped)
// aggregation. internal/engine/typer and internal/engine/tectorwise
// each prepare a Pipeline (PreparePipeline runs its builds) and scan
// it with their own loop structure and micro-architectural event
// stream — fused tuple-at-a-time versus vectorized primitives — so an
// ad-hoc query profiles the way that engine's hardcoded queries do.
package relop

import (
	"fmt"
	"strings"

	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

// Kind is a column's physical representation.
type Kind int

const (
	// I64 is a 64-bit integer column.
	I64 Kind = iota
	// I8 is a single-byte column.
	I8
)

// ColSpec names one input column of a pipeline table. Engines resolve
// the name against their own address-space bindings.
type ColSpec struct {
	Name string
	Kind Kind
}

// TableRef is one input table of a pipeline: the driver (index 0) or a
// join build side. Cols lists only the columns the pipeline touches.
type TableRef struct {
	Name string
	Cols []ColSpec
	Rows int
}

// Col is a ColSpec resolved against one engine's bindings: data plus
// the simulated address region.
type Col struct {
	Kind Kind
	I64  storage.ColI64
	I8   storage.ColI8
}

// Val reads element i as an int64.
func (c Col) Val(i int) int64 {
	if c.Kind == I8 {
		return int64(c.I8.V[i])
	}
	return c.I64.V[i]
}

// Addr is the simulated address of element i.
func (c Col) Addr(i int) uint64 {
	if c.Kind == I8 {
		return c.I8.Addr(i)
	}
	return c.I64.Addr(i)
}

// Base is the column region's base address.
func (c Col) Base() uint64 {
	if c.Kind == I8 {
		return c.I8.R.Base
	}
	return c.I64.R.Base
}

// ElemBytes is the element width.
func (c Col) ElemBytes() uint64 {
	if c.Kind == I8 {
		return 1
	}
	return 8
}

// Bound is a pipeline resolved against one engine: Tables[t][c] backs
// ColSpec c of pipeline table t.
type Bound struct {
	Tables [][]Col
	// Data is the database the columns belong to when BindData resolved
	// them (nil otherwise): the owner of per-column facts a compile
	// would otherwise re-derive by scanning.
	Data *tpch.Data
}

// ExprOp is an expression node operator.
type ExprOp int

const (
	// OpCol reads a column at the current row of its table.
	OpCol ExprOp = iota
	// OpConst is an integer literal.
	OpConst
	// OpAdd, OpSub, OpMul, OpDiv are left-associative integer
	// arithmetic; division truncates and yields 0 on a zero divisor.
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// Expr is an arithmetic expression over the pipeline's tables.
type Expr struct {
	Op   ExprOp
	L, R *Expr
	Tab  int // OpCol: table index
	Col  int // OpCol: column index within Tables[Tab].Cols
	Val  int64
}

// ColExpr builds a column leaf.
func ColExpr(tab, col int) *Expr { return &Expr{Op: OpCol, Tab: tab, Col: col} }

// ConstExpr builds a literal leaf.
func ConstExpr(v int64) *Expr { return &Expr{Op: OpConst, Val: v} }

// Bin builds a binary node.
func Bin(op ExprOp, l, r *Expr) *Expr { return &Expr{Op: op, L: l, R: r} }

// Eval evaluates the expression with rows[t] as the current row index
// of pipeline table t.
func (e *Expr) Eval(b *Bound, rows []int) int64 {
	switch e.Op {
	case OpCol:
		return b.Tables[e.Tab][e.Col].Val(rows[e.Tab])
	case OpConst:
		return e.Val
	}
	l := e.L.Eval(b, rows)
	r := e.R.Eval(b, rows)
	switch e.Op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	default: // OpDiv
		if r == 0 {
			return 0
		}
		return l / r
	}
}

// Walk visits every node depth-first.
func (e *Expr) Walk(f func(*Expr)) {
	if e == nil {
		return
	}
	if e.L != nil {
		e.L.Walk(f)
	}
	if e.R != nil {
		e.R.Walk(f)
	}
	f(e)
}

// OpCounts tallies the micro-op classes an expression costs per
// evaluation: adds/subs (ALU) and muls/divs (multiplier ports; a
// division is charged as two multiply-class uops).
func (e *Expr) OpCounts() (alu, mul uint64) {
	e.Walk(func(n *Expr) {
		switch n.Op {
		case OpAdd, OpSub:
			alu++
		case OpMul:
			mul++
		case OpDiv:
			mul += 2
		}
	})
	return
}

// Cols appends every distinct (table, column) leaf to the set.
func (e *Expr) Cols(set map[[2]int]bool) {
	e.Walk(func(n *Expr) {
		if n.Op == OpCol {
			set[[2]int{n.Tab, n.Col}] = true
		}
	})
}

// Tables reports which pipeline tables the expression reads.
func (e *Expr) Tables(set map[int]bool) {
	e.Walk(func(n *Expr) {
		if n.Op == OpCol {
			set[n.Tab] = true
		}
	})
}

// CmpOp is a comparison operator.
type CmpOp int

const (
	// Lt .. Ne follow SQL comparison semantics over int64.
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String renders the operator.
func (o CmpOp) String() string {
	return [...]string{"<", "<=", ">", ">=", "=", "<>"}[o]
}

// PredOp is a predicate node operator.
type PredOp int

const (
	// PredCmp compares A Cmp B.
	PredCmp PredOp = iota
	// PredBetween tests B <= A <= C.
	PredBetween
	// PredAnd conjoins L and R.
	PredAnd
)

// Pred is a boolean predicate over the pipeline's tables.
type Pred struct {
	Op      PredOp
	Cmp     CmpOp
	L, R    *Pred
	A, B, C *Expr
}

// Eval evaluates the predicate.
func (p *Pred) Eval(b *Bound, rows []int) bool {
	switch p.Op {
	case PredAnd:
		return p.L.Eval(b, rows) && p.R.Eval(b, rows)
	case PredBetween:
		v := p.A.Eval(b, rows)
		return v >= p.B.Eval(b, rows) && v <= p.C.Eval(b, rows)
	}
	l, r := p.A.Eval(b, rows), p.B.Eval(b, rows)
	switch p.Cmp {
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Gt:
		return l > r
	case Ge:
		return l >= r
	case Eq:
		return l == r
	default:
		return l != r
	}
}

// Conjuncts flattens the AND tree into its leaf predicates — the
// vectorized engine runs one selection primitive per conjunct, the
// compiled engine folds them behind a single branch.
func (p *Pred) Conjuncts() []*Pred {
	if p == nil {
		return nil
	}
	if p.Op == PredAnd {
		return append(p.L.Conjuncts(), p.R.Conjuncts()...)
	}
	return []*Pred{p}
}

// OpCounts tallies the compare/arithmetic work of one evaluation.
func (p *Pred) OpCounts() (alu, mul uint64) {
	if p == nil {
		return 0, 0
	}
	switch p.Op {
	case PredAnd:
		la, lm := p.L.OpCounts()
		ra, rm := p.R.OpCounts()
		return la + ra + 1, lm + rm
	case PredBetween:
		aa, am := p.A.OpCounts()
		ba, bm := p.B.OpCounts()
		ca, cm := p.C.OpCounts()
		return aa + ba + ca + 3, am + bm + cm
	}
	aa, am := p.A.OpCounts()
	ba, bm := p.B.OpCounts()
	return aa + ba + 1, am + bm
}

// Cols appends every column leaf the predicate reads.
func (p *Pred) Cols(set map[[2]int]bool) {
	if p == nil {
		return
	}
	if p.Op == PredAnd {
		p.L.Cols(set)
		p.R.Cols(set)
		return
	}
	p.A.Cols(set)
	p.B.Cols(set)
	if p.C != nil {
		p.C.Cols(set)
	}
}

// Tables reports which pipeline tables the predicate reads.
func (p *Pred) Tables(set map[int]bool) {
	if p == nil {
		return
	}
	if p.Op == PredAnd {
		p.L.Tables(set)
		p.R.Tables(set)
		return
	}
	p.A.Tables(set)
	p.B.Tables(set)
	if p.C != nil {
		p.C.Tables(set)
	}
}

// AggKind is an aggregate function.
type AggKind int

const (
	// AggSum, AggCount, AggMin, AggMax are the supported aggregates.
	AggSum AggKind = iota
	AggCount
	AggMin
	AggMax
)

// String names the aggregate.
func (k AggKind) String() string {
	return [...]string{"sum", "count", "min", "max"}[k]
}

// Agg is one output aggregate. Arg is nil for COUNT(*).
type Agg struct {
	Kind AggKind
	Arg  *Expr
}

// OutCol identifies one column of the aggregation output: a group key
// (Key true, Idx into GroupBy) or an aggregate (Idx into Aggs). The
// post-aggregation operators — HAVING and ORDER BY/LIMIT — address the
// output through it.
type OutCol struct {
	Key bool
	Idx int
}

// OutScalar is one side of a post-aggregation comparison: an integer
// constant or an output column.
type OutScalar struct {
	Const bool
	Val   int64
	Col   OutCol
}

// OutPred is one HAVING conjunct: L Cmp R over the aggregation output,
// evaluated once per group after the scan.
type OutPred struct {
	Cmp  CmpOp
	L, R OutScalar
}

// OrderKey is one ORDER BY key over the aggregation output.
type OrderKey struct {
	Col  OutCol
	Desc bool
}

// cmpVals applies a CmpOp to two int64 values.
func cmpVals(op CmpOp, l, r int64) bool {
	switch op {
	case Lt:
		return l < r
	case Le:
		return l <= r
	case Gt:
		return l > r
	case Ge:
		return l >= r
	case Eq:
		return l == r
	default:
		return l != r
	}
}

// Join is one equi-hash-join: build a table keyed by BuildKey
// (optionally pre-filtered), probe with ProbeKey evaluated over the
// tables already in the pipeline.
type Join struct {
	Build       int   // index of the build table in Pipeline.Tables
	BuildKey    *Expr // over the build table only
	ProbeKey    *Expr // over tables joined before this one
	BuildFilter *Pred // optional, over the build table only
}

// Pipeline is one executable SELECT: Tables[0] drives the scan, every
// other table is the build side of exactly one Join.
type Pipeline struct {
	Tables  []TableRef
	Filter  *Pred // over the driver only (may be nil)
	Joins   []Join
	GroupBy []*Expr
	Aggs    []Agg
	// EstSel is the planner's estimate of the driver filter's
	// selectivity (1 when unfiltered). Engines use it to pick between
	// streaming payload columns and sparse post-filter loads, the same
	// choice the hardcoded queries hardwire (Q1 streams at ~98 %, Q6
	// gathers at ~2 %).
	EstSel float64
	// EstGroups is the planner's estimate of the group count; it sizes
	// the aggregation hash table the way real group-by operators size
	// theirs from cardinality estimates. 0 defaults to half the driver.
	EstGroups int
	// Having filters groups after aggregation (conjuncts, may be empty).
	// It may reference hidden aggregates past OutAggs.
	Having []OutPred
	// OrderBy orders the final rows; ties (and a LIMIT without ORDER BY)
	// fall back to the full group-key tuple, so the output order is a
	// total order — identical on every engine and thread count.
	OrderBy []OrderKey
	// Limit caps the ordered output row count; 0 means no limit.
	Limit int
	// OutAggs is the number of select-list aggregates folded into the
	// result rows; aggregates past it exist only for HAVING/ORDER BY.
	// 0 means every aggregate is an output.
	OutAggs int
}

// outAggs resolves the OutAggs default.
func (pl *Pipeline) outAggs() int {
	if pl.OutAggs <= 0 || pl.OutAggs > len(pl.Aggs) {
		return len(pl.Aggs)
	}
	return pl.OutAggs
}

// Ordered reports whether the pipeline's output order is pinned (an
// ORDER BY, or a LIMIT whose deterministic cut requires sorting).
func (pl *Pipeline) Ordered() bool { return len(pl.OrderBy) > 0 || pl.Limit > 0 }

// Validate performs structural checks shared by both executors.
func (pl *Pipeline) Validate() error {
	if len(pl.Tables) == 0 {
		return fmt.Errorf("relop: pipeline has no tables")
	}
	if len(pl.Aggs) == 0 {
		return fmt.Errorf("relop: pipeline has no aggregates")
	}
	if len(pl.Joins) != len(pl.Tables)-1 {
		return fmt.Errorf("relop: %d joins cannot connect %d tables", len(pl.Joins), len(pl.Tables))
	}
	// Every column leaf must name a listed column of a table its clause
	// can see: the driver filter reads the driver, a join's build key
	// and filter read its build table, its probe key the tables joined
	// before it, and grouping and aggregates any table.
	seen := map[int]bool{0: true}
	reads := func(what string, visible func(t int) bool, e ...*Expr) error {
		cols := map[[2]int]bool{}
		for _, x := range e {
			x.Cols(cols)
		}
		for _, c := range SortedCols(cols, -1) {
			if c[0] < 0 || c[0] >= len(pl.Tables) || !visible(c[0]) || c[1] < 0 || c[1] >= len(pl.Tables[c[0]].Cols) {
				return fmt.Errorf("relop: %s reads column %d of table %d, which it cannot see", what, c[1], c[0])
			}
		}
		return nil
	}
	predExprs := func(p *Pred) (out []*Expr) {
		for _, c := range p.Conjuncts() {
			out = append(out, c.A, c.B, c.C)
		}
		return out
	}
	if err := reads("filter", func(t int) bool { return t == 0 }, predExprs(pl.Filter)...); err != nil {
		return err
	}
	for ji, j := range pl.Joins {
		if j.Build <= 0 || j.Build >= len(pl.Tables) || seen[j.Build] {
			return fmt.Errorf("relop: join build table %d invalid or repeated", j.Build)
		}
		if j.BuildKey == nil || j.ProbeKey == nil {
			return fmt.Errorf("relop: join %d lacks a key", ji)
		}
		own := func(t int) bool { return t == j.Build }
		if err := reads(fmt.Sprintf("join %d build side", ji), own, append(predExprs(j.BuildFilter), j.BuildKey)...); err != nil {
			return err
		}
		if err := reads(fmt.Sprintf("join %d probe key", ji), func(t int) bool { return seen[t] }, j.ProbeKey); err != nil {
			return err
		}
		seen[j.Build] = true
	}
	outputs := append([]*Expr(nil), pl.GroupBy...)
	for ai, a := range pl.Aggs {
		if a.Kind != AggCount && a.Arg == nil {
			return fmt.Errorf("relop: aggregate %d (%s) has no argument", ai, a.Kind)
		}
		outputs = append(outputs, a.Arg)
	}
	if err := reads("grouping or aggregate", func(int) bool { return true }, outputs...); err != nil {
		return err
	}
	if pl.Limit < 0 {
		return fmt.Errorf("relop: negative limit %d", pl.Limit)
	}
	if pl.OutAggs < 0 || pl.OutAggs > len(pl.Aggs) {
		return fmt.Errorf("relop: OutAggs %d out of range for %d aggregates", pl.OutAggs, len(pl.Aggs))
	}
	checkOut := func(what string, c OutCol) error {
		if c.Key {
			if c.Idx < 0 || c.Idx >= len(pl.GroupBy) {
				return fmt.Errorf("relop: %s references group key %d of %d", what, c.Idx, len(pl.GroupBy))
			}
			return nil
		}
		if c.Idx < 0 || c.Idx >= len(pl.Aggs) {
			return fmt.Errorf("relop: %s references aggregate %d of %d", what, c.Idx, len(pl.Aggs))
		}
		return nil
	}
	for _, h := range pl.Having {
		for _, s := range []OutScalar{h.L, h.R} {
			if s.Const {
				continue
			}
			if err := checkOut("having", s.Col); err != nil {
				return err
			}
		}
	}
	for _, o := range pl.OrderBy {
		if err := checkOut("order by", o.Col); err != nil {
			return err
		}
	}
	return nil
}

// DriverCols returns the driver-table column indexes split into the
// set the filter reads (streamed) and the rest the pipeline touches
// (streamed or gathered depending on selectivity).
func (pl *Pipeline) DriverCols() (filter, payload []int) {
	fset := map[[2]int]bool{}
	pl.Filter.Cols(fset)
	all := map[[2]int]bool{}
	pl.Filter.Cols(all)
	for _, j := range pl.Joins {
		j.ProbeKey.Cols(all)
	}
	for _, g := range pl.GroupBy {
		g.Cols(all)
	}
	for _, a := range pl.Aggs {
		if a.Arg != nil {
			a.Arg.Cols(all)
		}
	}
	for c := range pl.Tables[0].Cols {
		k := [2]int{0, c}
		if fset[k] {
			filter = append(filter, c)
		} else if all[k] {
			payload = append(payload, c)
		}
	}
	return
}

// GroupKey folds the group-by expression values into one composite
// hash key (mixing like the engines' hardcoded composite group-bys).
func GroupKey(vals []int64) int64 {
	var k int64
	for _, v := range vals {
		k = k*1_000_003 + v
	}
	return k
}

// Fold accumulates v into the aggregate state at slot.
func (a Agg) Fold(state []int64, slot int, v int64, first bool) {
	switch a.Kind {
	case AggSum:
		state[slot] += v
	case AggCount:
		state[slot]++
	case AggMin:
		if first || v < state[slot] {
			state[slot] = v
		}
	case AggMax:
		if first || v > state[slot] {
			state[slot] = v
		}
	}
}

// String renders the pipeline as an indented plan tree (the EXPLAIN
// body). Column names come from the table refs.
func (pl *Pipeline) String() string {
	var b strings.Builder
	indent := 0
	line := func(format string, args ...any) {
		b.WriteString(strings.Repeat("  ", indent))
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	var aggs []string
	for _, a := range pl.Aggs {
		if a.Arg == nil {
			aggs = append(aggs, "count(*)")
		} else {
			aggs = append(aggs, fmt.Sprintf("%s(%s)", a.Kind, pl.ExprString(a.Arg)))
		}
	}
	rows := pl.EstGroups
	if len(pl.GroupBy) == 0 {
		rows = 1
	}
	if pl.Limit > 0 {
		line("limit %d", pl.Limit)
		indent++
	}
	if len(pl.OrderBy) > 0 {
		var keys []string
		for _, o := range pl.OrderBy {
			dir := "asc"
			if o.Desc {
				dir = "desc"
			}
			keys = append(keys, pl.OutColString(o.Col)+" "+dir)
		}
		op := "sort"
		est := fmt.Sprintf("est %d rows, ~%d cmps", rows, sortCmps(rows, 0))
		if pl.Limit > 0 {
			op = "top-k"
			est = fmt.Sprintf("k=%d of est %d rows, ~%d cmps", pl.Limit, rows, sortCmps(rows, pl.Limit))
		}
		line("%s [%s] (%s)", op, strings.Join(keys, ", "), est)
		indent++
	} else if pl.Limit > 0 {
		line("sort [group key] (deterministic cut, est %d rows)", rows)
		indent++
	}
	if len(pl.Having) > 0 {
		var hs []string
		for _, h := range pl.Having {
			hs = append(hs, pl.OutPredString(h))
		}
		line("having [%s]", strings.Join(hs, " and "))
		indent++
	}
	if len(pl.GroupBy) > 0 {
		var keys []string
		for _, g := range pl.GroupBy {
			keys = append(keys, pl.ExprString(g))
		}
		line("hash-aggregate [%s] group by [%s]", strings.Join(aggs, ", "), strings.Join(keys, ", "))
	} else {
		line("aggregate [%s]", strings.Join(aggs, ", "))
	}
	indent++
	for i := len(pl.Joins) - 1; i >= 0; i-- {
		j := pl.Joins[i]
		bt := pl.Tables[j.Build]
		extra := ""
		if j.BuildFilter != nil {
			extra = fmt.Sprintf(" where %s", pl.PredString(j.BuildFilter))
		}
		line("hash-join [%s = %s] (build %s, %d rows%s)",
			pl.ExprString(j.ProbeKey), pl.ExprString(j.BuildKey), bt.Name, bt.Rows, extra)
		indent++
	}
	if pl.Filter != nil {
		line("filter [%s] (est sel %.1f%%)", pl.PredString(pl.Filter), 100*pl.EstSel)
		indent++
	}
	line("scan %s (%d rows)", pl.Tables[0].Name, pl.Tables[0].Rows)
	return b.String()
}

// ExprString renders an expression with column names resolved.
func (pl *Pipeline) ExprString(e *Expr) string {
	switch e.Op {
	case OpCol:
		return pl.Tables[e.Tab].Cols[e.Col].Name
	case OpConst:
		return fmt.Sprintf("%d", e.Val)
	}
	op := [...]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/"}[e.Op]
	return fmt.Sprintf("(%s %s %s)", pl.ExprString(e.L), op, pl.ExprString(e.R))
}

// PredString renders a predicate with column names resolved.
func (pl *Pipeline) PredString(p *Pred) string {
	switch p.Op {
	case PredAnd:
		return fmt.Sprintf("%s and %s", pl.PredString(p.L), pl.PredString(p.R))
	case PredBetween:
		return fmt.Sprintf("%s between %s and %s",
			pl.ExprString(p.A), pl.ExprString(p.B), pl.ExprString(p.C))
	}
	return fmt.Sprintf("%s %s %s", pl.ExprString(p.A), p.Cmp, pl.ExprString(p.B))
}

// OutColString renders an output-column reference with names resolved:
// the group-by expression, or the aggregate call.
func (pl *Pipeline) OutColString(c OutCol) string {
	if c.Key {
		return pl.ExprString(pl.GroupBy[c.Idx])
	}
	a := pl.Aggs[c.Idx]
	if a.Arg == nil {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Kind, pl.ExprString(a.Arg))
}

// OutPredString renders one HAVING conjunct.
func (pl *Pipeline) OutPredString(h OutPred) string {
	s := func(o OutScalar) string {
		if o.Const {
			return fmt.Sprintf("%d", o.Val)
		}
		return pl.OutColString(o.Col)
	}
	return fmt.Sprintf("%s %s %s", s(h.L), h.Cmp, s(h.R))
}

// Resolve binds a pipeline against an engine's column maps (built from
// the tpch catalog at engine construction).
func Resolve(pl *Pipeline, i64 map[string]storage.ColI64, i8 map[string]storage.ColI8) (*Bound, error) {
	b := &Bound{Tables: make([][]Col, len(pl.Tables))}
	for ti, t := range pl.Tables {
		cols := make([]Col, len(t.Cols))
		for ci, cs := range t.Cols {
			switch cs.Kind {
			case I64:
				c, ok := i64[cs.Name]
				if !ok {
					return nil, fmt.Errorf("relop: engine has no int64 binding for column %q", cs.Name)
				}
				cols[ci] = Col{Kind: I64, I64: c}
			case I8:
				c, ok := i8[cs.Name]
				if !ok {
					return nil, fmt.Errorf("relop: engine has no int8 binding for column %q", cs.Name)
				}
				cols[ci] = Col{Kind: I8, I8: c}
			}
		}
		b.Tables[ti] = cols
	}
	return b, nil
}
