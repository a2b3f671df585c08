package sql

import (
	"sort"

	"olapmicro/internal/engine/relop"
	"olapmicro/internal/tpch"
)

// binder resolves names against the tpch catalog for one statement,
// building each pipeline table's used-column list as binding proceeds.
type binder struct {
	d      *tpch.Data
	names  map[string]int // table name -> pipeline index
	metas  []tpch.TableMeta
	cols   [][]relop.ColSpec
	colIdx []map[string]int
}

func (b *binder) ensure(tab int, cm tpch.ColumnMeta) int {
	if i, ok := b.colIdx[tab][cm.Name]; ok {
		return i
	}
	kind := relop.I64
	if cm.Kind == tpch.KindI8 {
		kind = relop.I8
	}
	i := len(b.cols[tab])
	b.cols[tab] = append(b.cols[tab], relop.ColSpec{Name: cm.Name, Kind: kind})
	b.colIdx[tab][cm.Name] = i
	return i
}

// resolveCol maps a column reference to (pipeline table, column index).
func (b *binder) resolveCol(c *ColRef) (int, int, error) {
	var (
		tab = -1
		cm  tpch.ColumnMeta
	)
	if c.Table != "" {
		ti, ok := b.names[c.Table]
		if !ok {
			return 0, 0, c.P.Errorf("table %q is not in the FROM clause", c.Table)
		}
		m, ok := b.metas[ti].Column(c.Name)
		if !ok {
			return 0, 0, c.P.Errorf("table %q has no column %q", c.Table, c.Name)
		}
		tab, cm = ti, m
	} else {
		for ti, meta := range b.metas {
			if m, ok := meta.Column(c.Name); ok {
				if tab >= 0 {
					return 0, 0, c.P.Errorf("column %q is ambiguous", c.Name)
				}
				tab, cm = ti, m
			}
		}
		if tab < 0 {
			if _, _, ok := tpch.SchemaColumn(c.Name); ok {
				return 0, 0, c.P.Errorf("column %q belongs to a table that is not in the FROM clause", c.Name)
			}
			return 0, 0, c.P.Errorf("unknown column %q", c.Name)
		}
	}
	if cm.Kind == tpch.KindStr {
		return 0, 0, c.P.Errorf("string column %q cannot be used in expressions", c.Name)
	}
	return tab, b.ensure(tab, cm), nil
}

func (b *binder) bindExpr(x Expr) (*relop.Expr, error) {
	switch e := x.(type) {
	case *NumLit:
		return relop.ConstExpr(e.V), nil
	case *DateLit:
		return relop.ConstExpr(e.Days), nil
	case *ColRef:
		tab, col, err := b.resolveCol(e)
		if err != nil {
			return nil, err
		}
		return relop.ColExpr(tab, col), nil
	case *BinExpr:
		l, err := b.bindExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(e.R)
		if err != nil {
			return nil, err
		}
		op := map[byte]relop.ExprOp{'+': relop.OpAdd, '-': relop.OpSub, '*': relop.OpMul, '/': relop.OpDiv}[e.Op]
		return relop.Bin(op, l, r), nil
	case *AggCall:
		return nil, e.P.Errorf("aggregate %s is only allowed as a top-level select item", e.Fn)
	case *Param:
		// BuildPipeline only ever sees substituted statements: Bind
		// replaces every Param with the bound literal before planning.
		return nil, e.P.Errorf("parameter ? must be bound before the statement can plan")
	default:
		return nil, x.Pos().Errorf("unsupported expression")
	}
}

func (b *binder) bindPred(pr Pred) (*relop.Pred, error) {
	switch p := pr.(type) {
	case *AndPred:
		l, err := b.bindPred(p.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindPred(p.R)
		if err != nil {
			return nil, err
		}
		return &relop.Pred{Op: relop.PredAnd, L: l, R: r}, nil
	case *CmpPred:
		l, err := b.bindExpr(p.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(p.R)
		if err != nil {
			return nil, err
		}
		return &relop.Pred{Op: relop.PredCmp, Cmp: p.Op, A: l, B: r}, nil
	case *BetweenPred:
		x, err := b.bindExpr(p.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(p.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(p.Hi)
		if err != nil {
			return nil, err
		}
		return &relop.Pred{Op: relop.PredBetween, A: x, B: lo, C: hi}, nil
	default:
		return nil, pr.Pos().Errorf("unsupported predicate")
	}
}

// predTables reports the set of pipeline tables a bound predicate
// reads.
func predTables(p *relop.Pred) map[int]bool {
	set := map[int]bool{}
	p.Tables(set)
	return set
}

// sortedTables returns the table ids in set in ascending order. Table
// sets are maps; any decision that depends on which tables appear —
// predicate pushdown targets, group-count estimates — must walk them
// in this fixed order or the plan (and its predicted profile) varies
// run to run. Enforced by olaplint's detrange.
func sortedTables(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// flattenAnd splits an AST predicate into conjuncts.
func flattenAnd(p Pred) []Pred {
	if a, ok := p.(*AndPred); ok {
		return append(flattenAnd(a.L), flattenAnd(a.R)...)
	}
	return []Pred{p}
}

var aggKinds = map[string]relop.AggKind{
	"sum": relop.AggSum, "count": relop.AggCount,
	"min": relop.AggMin, "max": relop.AggMax,
}

// exprEq reports structural equality of two bound expressions — how
// the binder matches a HAVING/ORDER BY expression against the group
// keys and aggregates already in the pipeline.
func exprEq(a, b *relop.Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Op != b.Op || a.Tab != b.Tab || a.Col != b.Col || a.Val != b.Val {
		return false
	}
	return exprEq(a.L, b.L) && exprEq(a.R, b.R)
}

// containsAgg reports whether an AST expression nests an aggregate.
func containsAgg(x Expr) bool {
	switch e := x.(type) {
	case *AggCall:
		return true
	case *BinExpr:
		return containsAgg(e.L) || containsAgg(e.R)
	}
	return false
}

// BuildPipeline binds a parsed SELECT against the catalog,
// type-checks it, chooses the join order (largest table drives the
// probe pass; every other table becomes a hash build), pushes filter
// conjuncts down to the table they reference, and estimates filter
// selectivity and group cardinality by sampling the generated data.
func BuildPipeline(d *tpch.Data, stmt *Select) (*relop.Pipeline, error) {
	// Resolve the FROM tables in syntax order.
	type fromEntry struct {
		meta tpch.TableMeta
		pos  Pos
	}
	entries := []fromEntry{}
	seen := map[string]bool{}
	addTable := func(ft FromTable) error {
		meta, ok := tpch.SchemaTable(ft.Name)
		if !ok {
			return ft.P.Errorf("unknown table %q", ft.Name)
		}
		if seen[ft.Name] {
			return ft.P.Errorf("table %q appears twice in FROM", ft.Name)
		}
		seen[ft.Name] = true
		entries = append(entries, fromEntry{meta: meta, pos: ft.P})
		return nil
	}
	if err := addTable(stmt.From); err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if err := addTable(j.Table); err != nil {
			return nil, err
		}
	}

	// tableOf locates the FROM table owning an ON column.
	tableOf := func(c *ColRef) (string, error) {
		if c.Table != "" {
			if !seen[c.Table] {
				return "", c.P.Errorf("table %q is not in the FROM clause", c.Table)
			}
			return c.Table, nil
		}
		for _, e := range entries {
			if _, ok := e.meta.Column(c.Name); ok {
				return e.meta.Name, nil
			}
		}
		return "", c.P.Errorf("unknown column %q in join condition", c.Name)
	}

	// The largest table drives the scan; the cost models make the
	// smaller side the hash build on every engine.
	driver := 0
	for i, e := range entries {
		if e.meta.Rows(d) > entries[driver].meta.Rows(d) {
			driver = i
		}
	}

	// Order the joins so each one connects a new table to the tables
	// already in the pipeline.
	type joinEdge struct {
		table    string
		buildCol *ColRef
		probeCol *ColRef
		pos      Pos
	}
	visible := map[string]bool{entries[driver].meta.Name: true}
	var edges []joinEdge
	pending := append([]JoinOn{}, stmt.Joins...)
	for len(pending) > 0 {
		progress := false
		for i := 0; i < len(pending); i++ {
			j := pending[i]
			lt, err := tableOf(j.L)
			if err != nil {
				return nil, err
			}
			rt, err := tableOf(j.R)
			if err != nil {
				return nil, err
			}
			if lt == rt {
				return nil, j.P.Errorf("join condition compares two columns of table %q", lt)
			}
			var build string
			var buildCol, probeCol *ColRef
			switch {
			case visible[lt] && !visible[rt]:
				build, buildCol, probeCol = rt, j.R, j.L
			case visible[rt] && !visible[lt]:
				build, buildCol, probeCol = lt, j.L, j.R
			default:
				continue
			}
			edges = append(edges, joinEdge{table: build, buildCol: buildCol, probeCol: probeCol, pos: j.P})
			visible[build] = true
			pending = append(pending[:i], pending[i+1:]...)
			progress = true
			i--
		}
		if !progress {
			return nil, pending[0].P.Errorf("join condition does not connect table %q to the tables joined so far", pending[0].Table.Name)
		}
	}

	// Fix the pipeline table order: driver first, then build order.
	b := &binder{d: d, names: map[string]int{}}
	addBound := func(name string) {
		meta, _ := tpch.SchemaTable(name)
		b.names[name] = len(b.metas)
		b.metas = append(b.metas, meta)
		b.cols = append(b.cols, nil)
		b.colIdx = append(b.colIdx, map[string]int{})
	}
	addBound(entries[driver].meta.Name)
	for _, e := range edges {
		addBound(e.table)
	}

	pl := &relop.Pipeline{}

	// Bind joins.
	for _, e := range edges {
		bk, err := b.bindExpr(e.buildCol)
		if err != nil {
			return nil, err
		}
		pk, err := b.bindExpr(e.probeCol)
		if err != nil {
			return nil, err
		}
		pl.Joins = append(pl.Joins, relop.Join{Build: b.names[e.table], BuildKey: bk, ProbeKey: pk})
	}

	// Bind and push down WHERE conjuncts.
	if stmt.Where != nil {
		for _, conj := range flattenAnd(stmt.Where) {
			bp, err := b.bindPred(conj)
			if err != nil {
				return nil, err
			}
			tabs := predTables(bp)
			switch {
			case len(tabs) == 0 || tabs[0] && len(tabs) == 1:
				pl.Filter = andPred(pl.Filter, bp)
			case len(tabs) == 1:
				only := sortedTables(tabs)[0]
				ji := -1
				for i := range pl.Joins {
					if pl.Joins[i].Build == only {
						ji = i
					}
				}
				pl.Joins[ji].BuildFilter = andPred(pl.Joins[ji].BuildFilter, bp)
			default:
				return nil, conj.Pos().Errorf("predicate spans multiple tables; only equi-join ON conditions may combine tables")
			}
		}
	}

	// Bind GROUP BY.
	for _, g := range stmt.GroupBy {
		bg, err := b.bindExpr(g)
		if err != nil {
			return nil, err
		}
		pl.GroupBy = append(pl.GroupBy, bg)
	}

	// Bind select items: aggregates fold into the result; bare grouped
	// columns are display-only (the Result checksum covers aggregate
	// values, matching the hardcoded queries' convention). Each item's
	// output column is recorded so ORDER BY can name it by alias or
	// 1-based position.
	itemOut := make([]relop.OutCol, len(stmt.Items))
	aliases := map[string]relop.OutCol{}
	for ii, item := range stmt.Items {
		switch x := item.X.(type) {
		case *AggCall:
			agg := relop.Agg{Kind: aggKinds[x.Fn]}
			if !x.Star {
				arg, err := b.bindExpr(x.Arg)
				if err != nil {
					return nil, err
				}
				if x.Fn == "count" {
					arg = nil // count(expr) over non-null columns == count(*)
				}
				agg.Arg = arg
			}
			pl.Aggs = append(pl.Aggs, agg)
			itemOut[ii] = relop.OutCol{Idx: len(pl.Aggs) - 1}
		case *ColRef:
			tab, col, err := b.resolveCol(x)
			if err != nil {
				return nil, err
			}
			found := -1
			for gi, g := range pl.GroupBy {
				if g.Op == relop.OpCol && g.Tab == tab && g.Col == col {
					found = gi
				}
			}
			if found < 0 {
				return nil, x.P.Errorf("column %q must appear in GROUP BY", x.Name)
			}
			itemOut[ii] = relop.OutCol{Key: true, Idx: found}
		default:
			return nil, item.X.Pos().Errorf("select item must be an aggregate or a grouped column")
		}
		if item.Alias != "" {
			aliases[item.Alias] = itemOut[ii]
		}
	}
	if len(pl.Aggs) == 0 {
		return nil, stmt.Items[0].X.Pos().Errorf("the select list needs at least one aggregate (sum/count/min/max)")
	}
	// Aggregates bound past this point (HAVING/ORDER BY only) are
	// hidden: computed, but not part of the output rows.
	pl.OutAggs = len(pl.Aggs)

	if err := bindPostAgg(b, pl, stmt, aliases, itemOut); err != nil {
		return nil, err
	}

	// Materialize the table refs now that every used column is known.
	pl.Tables = make([]relop.TableRef, len(b.metas))
	for i, m := range b.metas {
		pl.Tables[i] = relop.TableRef{Name: m.Name, Cols: b.cols[i], Rows: m.Rows(d)}
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}

	estimate(pl, d)
	return pl, nil
}

// bindAgg resolves an aggregate call to its pipeline index, appending
// a hidden aggregate when no already-bound aggregate matches — so
// HAVING sum(x) > k works whether or not sum(x) is selected.
func bindAgg(b *binder, pl *relop.Pipeline, x *AggCall) (int, error) {
	agg := relop.Agg{Kind: aggKinds[x.Fn]}
	if !x.Star {
		arg, err := b.bindExpr(x.Arg)
		if err != nil {
			return 0, err
		}
		if x.Fn == "count" {
			arg = nil // count(expr) over non-null columns == count(*)
		}
		agg.Arg = arg
	}
	for ai, a := range pl.Aggs {
		if a.Kind == agg.Kind && exprEq(a.Arg, agg.Arg) {
			return ai, nil
		}
	}
	pl.Aggs = append(pl.Aggs, agg)
	return len(pl.Aggs) - 1, nil
}

// bindOutCol resolves a HAVING/ORDER BY expression to an aggregation
// output column: an aggregate call, a select-item alias, or an
// expression matching a group key.
func bindOutCol(b *binder, pl *relop.Pipeline, x Expr, clause string, aliases map[string]relop.OutCol) (relop.OutCol, error) {
	if a, ok := x.(*AggCall); ok {
		idx, err := bindAgg(b, pl, a)
		if err != nil {
			return relop.OutCol{}, err
		}
		return relop.OutCol{Idx: idx}, nil
	}
	if c, ok := x.(*ColRef); ok && c.Table == "" {
		if out, ok := aliases[c.Name]; ok {
			return out, nil
		}
	}
	if containsAgg(x) {
		return relop.OutCol{}, x.Pos().Errorf("%s supports an aggregate call or a grouped expression, not arithmetic over aggregates", clause)
	}
	bx, err := b.bindExpr(x)
	if err != nil {
		return relop.OutCol{}, err
	}
	for gi, g := range pl.GroupBy {
		if exprEq(g, bx) {
			return relop.OutCol{Key: true, Idx: gi}, nil
		}
	}
	return relop.OutCol{}, x.Pos().Errorf("%s expression %q is neither an aggregate nor in GROUP BY", clause, x)
}

// bindOutScalar resolves one side of a HAVING comparison: a literal or
// an output column.
func bindOutScalar(b *binder, pl *relop.Pipeline, x Expr, aliases map[string]relop.OutCol) (relop.OutScalar, error) {
	switch e := x.(type) {
	case *NumLit:
		return relop.OutScalar{Const: true, Val: e.V}, nil
	case *DateLit:
		return relop.OutScalar{Const: true, Val: e.Days}, nil
	}
	col, err := bindOutCol(b, pl, x, "HAVING", aliases)
	if err != nil {
		return relop.OutScalar{}, err
	}
	return relop.OutScalar{Col: col}, nil
}

// bindPostAgg binds the post-aggregation clauses — HAVING, ORDER BY
// (aliases and 1-based positions included) and LIMIT — onto the
// pipeline's output columns.
func bindPostAgg(b *binder, pl *relop.Pipeline, stmt *Select, aliases map[string]relop.OutCol, itemOut []relop.OutCol) error {
	if stmt.Having != nil {
		for _, conj := range flattenAnd(stmt.Having) {
			switch h := conj.(type) {
			case *CmpPred:
				l, err := bindOutScalar(b, pl, h.L, aliases)
				if err != nil {
					return err
				}
				r, err := bindOutScalar(b, pl, h.R, aliases)
				if err != nil {
					return err
				}
				pl.Having = append(pl.Having, relop.OutPred{Cmp: h.Op, L: l, R: r})
			case *BetweenPred:
				x, err := bindOutScalar(b, pl, h.X, aliases)
				if err != nil {
					return err
				}
				lo, err := bindOutScalar(b, pl, h.Lo, aliases)
				if err != nil {
					return err
				}
				hi, err := bindOutScalar(b, pl, h.Hi, aliases)
				if err != nil {
					return err
				}
				pl.Having = append(pl.Having,
					relop.OutPred{Cmp: relop.Ge, L: x, R: lo},
					relop.OutPred{Cmp: relop.Le, L: x, R: hi})
			default:
				return conj.Pos().Errorf("unsupported HAVING predicate")
			}
		}
	}
	for _, o := range stmt.OrderBy {
		if nl, ok := o.X.(*NumLit); ok {
			// ORDER BY n names the n-th select item (positional form).
			if nl.V < 1 || nl.V > int64(len(itemOut)) {
				return nl.P.Errorf("ORDER BY position %d is out of range (1..%d)", nl.V, len(itemOut))
			}
			pl.OrderBy = append(pl.OrderBy, relop.OrderKey{Col: itemOut[nl.V-1], Desc: o.Desc})
			continue
		}
		col, err := bindOutCol(b, pl, o.X, "ORDER BY", aliases)
		if err != nil {
			return err
		}
		pl.OrderBy = append(pl.OrderBy, relop.OrderKey{Col: col, Desc: o.Desc})
	}
	if stmt.Limit >= 0 {
		pl.Limit = int(stmt.Limit)
	}
	return nil
}

func andPred(l, r *relop.Pred) *relop.Pred {
	if l == nil {
		return r
	}
	return &relop.Pred{Op: relop.PredAnd, L: l, R: r}
}

// estimateSamples bounds the planner's sampling work.
const estimateSamples = 4096

// estimate fills EstSel and EstGroups by sampling the generated data —
// the planner's stand-in for a real optimizer's statistics. The filter
// tests its sample through the fast plan's kernels (relop.SampleFilter).
func estimate(pl *relop.Pipeline, d *tpch.Data) {
	pl.EstSel = 1
	pb := relop.BindData(pl, d)
	n := pl.Tables[0].Rows
	if n == 0 {
		return
	}
	stride := n / estimateSamples
	if stride < 1 {
		stride = 1
	}
	rows := make([]int, len(pl.Tables))
	if pl.Filter != nil {
		sampled, passed, ok := relop.SampleFilter(pl, pb, stride)
		if !ok {
			sampled, passed = 0, 0
			for i := 0; i < n; i += stride {
				rows[0] = i
				sampled++
				if pl.Filter.Eval(pb, rows) {
					passed++
				}
			}
		}
		pl.EstSel = float64(passed) / float64(sampled)
	}
	if len(pl.GroupBy) == 0 {
		return
	}
	driverOnly := true
	refTables := map[int]bool{}
	for _, g := range pl.GroupBy {
		g.Tables(refTables)
	}
	for t := range refTables {
		if t != 0 {
			driverOnly = false
		}
	}
	if !driverOnly {
		// Grouping by a joined dimension: the group count is bounded by
		// the referenced build sides' cardinalities (and by the probe
		// stream, for mixed keys).
		est := 64
		for _, t := range sortedTables(refTables) {
			if t != 0 && pl.Tables[t].Rows > est {
				est = pl.Tables[t].Rows
			}
		}
		if est > n {
			est = n
		}
		pl.EstGroups = est
		return
	}
	keys := map[int64]bool{}
	keyVals := make([]int64, len(pl.GroupBy))
	sampled := 0
	for i := 0; i < n; i += stride {
		rows[0] = i
		for gi, g := range pl.GroupBy {
			keyVals[gi] = g.Eval(pb, rows)
		}
		keys[relop.GroupKey(keyVals)] = true
		sampled++
	}
	if len(keys) < sampled/2 {
		// Low cardinality: the sample saw (nearly) every group.
		pl.EstGroups = len(keys)*2 + 8
	} else {
		// High cardinality: the sample saturated; size like a group-by
		// operator working from a fraction-of-input estimate.
		pl.EstGroups = n/4 + 1
	}
}
