// fast.go is the profile-free vectorized executor behind fast mode, and
// fast mode's only executor.
//
// CompileFast lowers a Pipeline onto flat column slices and
// closure-compiled vector kernels: filter conjuncts compact a selection
// vector branchlessly, expressions evaluate chunk-at-a-time into reused
// buffers, joins probe build-side indexes made once per plan
// (fastjoin.go), and grouping runs an open-addressing table hashed on
// the same mixed GroupKey the engines bucket with (group identity stays
// the full key tuple). No probes, no simulated events, no per-row
// interpretation — this is what the same query costs when only the
// answer matters, the headroom the measured profiles quantify.
//
// The partials it produces feed the shared FinalizeProbed, so a fast
// Result is bit-identical to a measured run's at any thread count or
// partitioning: integer aggregation commutes (sums wrap, min/max/count
// are order-free) and the result checksum is order-insensitive by
// construction.
package relop

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"olapmicro/internal/engine"
	"olapmicro/internal/storage"
)

// fastChunk is the scan granularity: per-chunk buffers stay resident in
// the host caches while bookkeeping amortizes over enough rows to
// vanish.
const fastChunk = 1024

// fastHashMul spreads mixed group keys over the open-addressing table
// (Fibonacci hashing; the table's own GroupKey mix only combines the
// key tuple).
const fastHashMul = 0x9E3779B97F4A7C15

// vecKernel evaluates an expression into out for the listed rows
// (len(rows) == len(out)) or, when rows is nil, for the contiguous run
// lo, lo+1, …, lo+len(out)−1, which column leaves slice instead of
// gathering.
type vecKernel func(w *fastWorker, rows []int32, lo int, out []int64)

// selKernel refines a selection in place and returns the kept prefix.
type selKernel func(w *fastWorker, rows []int32) []int32

// rangeSelKernel runs the first filter conjunct directly over a row
// range: sequential column access, no materialized row list to gather
// through.
type rangeSelKernel func(lo, hi int32, out []int32) []int32

// FastPlan is a pipeline compiled for probe-free execution, its join
// build sides indexed. It is immutable after CompileFast and safe for
// any number of concurrent Execute or Run calls; workers (selection
// vectors, value buffers, group tables) are pooled and reset between
// executions.
type FastPlan struct {
	pl *Pipeline
	// rows is the driver rows the plan scans: zero when the filter is
	// proven empty.
	rows     int
	grouped  bool
	nkeys    int
	tableCap uint64
	filter0  rangeSelKernel
	filter   []selKernel
	joins    []fastJoin
	keys     []vecKernel
	aggs     []fastAgg
	nbufs    int
	pool     sync.Pool
	// ran is set by the plan's first execution; workers are pooled only
	// from the second on. A plan bound for one literal tuple usually
	// runs once, and a sync.Pool keeps what it is given reachable for
	// two more GC cycles: at ad-hoc rates that is thousands of dead
	// plans' buffers counted as live heap, which doubles the GC's target.
	ran atomic.Bool
	// codes direct-codes the groups when every group key is a bare
	// column with a small proven range (fastgroup.go); nil plans hash.
	codes *codeGroups
	// foldRuns is set for a scalar plan with no filter and no join: its
	// chunks fold contiguous rows with no selection vector (foldRun).
	foldRuns bool
}

// fastAgg is one compiled aggregate: COUNT ignores its argument (the
// engines' Fold does too), a bare-column argument folds directly from
// the column, anything else evaluates through its kernel first.
type fastAgg struct {
	kind AggKind
	arg  vecKernel
	v    intCol
	seed int64
}

// CompileFast compiles pl, resolved against b, into a vectorized
// probe-free executor: every pipeline Validate accepts, joins included.
// Each join's build side is filtered and indexed here, once, and the
// plan keeps the index, so every Execute of it — concurrent ones
// included — only probes. Beyond Validate's errors it refuses one shape:
// a table of more than MaxInt32 rows, which 32-bit row ids cannot
// address (the planner drives the largest table, so in practice a
// driver past SF 350).
func CompileFast(pl *Pipeline, b *Bound) (*FastPlan, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	for _, t := range pl.Tables {
		if t.Rows > math.MaxInt32 {
			return nil, fmt.Errorf("relop: fast mode addresses rows with 32 bits; table %s has %d rows", t.Name, t.Rows)
		}
	}
	fc := &fastCompiler{pl: pl, b: b}
	p := &FastPlan{
		pl:      pl,
		rows:    pl.Tables[0].Rows,
		grouped: len(pl.GroupBy) > 0,
		nkeys:   len(pl.GroupBy),
	}
	conds, rest, never := fc.pred(pl.Filter)
	for ji := range pl.Joins {
		p.joins = append(p.joins, fc.join(ji))
	}
	for _, g := range pl.GroupBy {
		p.keys = append(p.keys, fc.kernel(fc.expr(g)))
	}
	if p.grouped {
		p.codes = fc.codeGroups()
	}
	for _, a := range pl.Aggs {
		fa := fastAgg{kind: a.Kind}
		switch a.Kind {
		case AggMin:
			fa.seed = math.MaxInt64
		case AggMax:
			fa.seed = math.MinInt64
		}
		if a.Kind != AggCount {
			fe := fc.expr(a.Arg)
			if fa.v = fe.bare(); fa.v == nil {
				fa.arg = fc.kernel(fe)
			}
		}
		p.aggs = append(p.aggs, fa)
	}
	switch {
	case never:
		// Some conjunct excludes every present value: nothing matches,
		// whatever the other conjuncts say, so there is nothing to scan.
		p.rows = 0
	case p.codes != nil && len(rest) == 0 && len(p.joins) == 0:
		p.codes.chunked = true
		for _, c := range conds {
			p.codes.masks = append(p.codes.masks, c.v.spanMask(c))
		}
	default:
		p.filter0, p.filter = stageSpans(conds, rest)
		p.foldRuns = p.filter0 == nil && p.filter == nil && p.joins == nil && !p.grouped
	}
	p.nbufs = fc.nbufs
	// Size the group table from the planner estimate, capped so a wild
	// overestimate doesn't cost a huge zeroing on every worker reset;
	// growth rehashes geometrically past the cap.
	est := pl.EstGroups
	if est < 4 {
		est = 4
	}
	cap := uint64(16)
	for cap < uint64(est)*2 && cap < 1<<16 {
		cap <<= 1
	}
	p.tableCap = cap
	return p, nil
}

// Execute runs the plan on up to threads workers, each scanning its
// morsels back to back (Dedicated), and returns the finalized result
// plus the worker count used. Any partitioning yields the identical
// Result (see the file comment), so the thread count is purely a
// latency knob.
func (p *FastPlan) Execute(threads int) (engine.Result, int) {
	res, used, _ := p.Run(threads, Dedicated)
	return res, used
}

// Run is the plan's morsel driver, shaped like parallel.Run: Morsels
// on fastChunk boundaries, one worker per thread (none for a plan
// proven empty, which has no morsels), the caller's scan step under
// parallel.Run's contract, then the partials finalized. After a scan
// error — cancellation, a deadline, a recovered panic — the workers
// are dropped, not pooled: their state is mid-scan or suspect.
func (p *FastPlan) Run(threads int, scan func(workers []Worker, morsels []Morsel) error) (engine.Result, int, error) {
	threads = max(threads, 1)
	morsels := Morsels(p.rows, fastChunk, threads)
	threads = min(threads, len(morsels))
	pooled := p.ran.Swap(true)
	workers := make([]Worker, threads)
	for t := range workers {
		workers[t] = p.worker(pooled)
	}
	if err := scan(workers, morsels); err != nil {
		return engine.Result{}, 0, err
	}
	res := FinalizeProbed(nil, p.pl, p.partials(workers))
	if pooled {
		for _, w := range workers {
			p.pool.Put(w)
		}
	}
	return res, threads, nil
}

// partials exposes the workers' state in the form FinalizeProbed
// merges: a direct-coded plan's tables merged into one partial, or one
// partial per worker.
func (p *FastPlan) partials(ws []Worker) []*Partial {
	if p.codes != nil {
		return []*Partial{p.codePartial(ws)}
	}
	parts := make([]*Partial, len(ws))
	for t, w := range ws {
		parts[t] = w.Partial()
	}
	return parts
}

// worker takes a pooled worker (reset) or builds a fresh one.
func (p *FastPlan) worker(pooled bool) *fastWorker {
	if pooled {
		if w, ok := p.pool.Get().(*fastWorker); ok {
			w.reset()
			return w
		}
	}
	w := &fastWorker{
		p:      p,
		selBuf: make([]int32, fastChunk),
		val:    make([]int64, fastChunk),
		scalar: make([]int64, len(p.aggs)),
	}
	switch {
	case p.codes != nil:
		w.slots = make([]int32, fastChunk)
		w.initCodeTables()
	case p.grouped:
		w.slots = make([]int32, fastChunk)
		w.mix = make([]int64, fastChunk)
		w.keyBufs = make([][]int64, p.nkeys)
		for k := range w.keyBufs {
			w.keyBufs[k] = make([]int64, fastChunk)
		}
		w.groups.init(p)
	}
	w.scratch = scratchBufs(p.nbufs)
	if len(p.joins) > 0 {
		w.initJoins()
	}
	w.resetScalars()
	return w
}

// scratchBufs allocates n chunk-sized scratch buffers.
func scratchBufs(n int) [][]int64 {
	s := make([][]int64, n)
	for i := range s {
		s[i] = make([]int64, fastChunk)
	}
	return s
}

// fastWorker is one execution's thread-local state: selection and value
// buffers plus the private aggregation table, merged by FinalizeProbed
// exactly like an engine worker's partial.
type fastWorker struct {
	p       *FastPlan
	selBuf  []int32
	slots   []int32
	mix     []int64
	val     []int64
	keyBufs [][]int64
	scratch [][]int64
	groups  fastGroups
	scalar  []int64
	matched int64
	// Direct-coded plans: cnt counts rows per code slot and acc is
	// [aggregate][slot], nil for COUNT. codePartial leaves them reset.
	cnt []int64
	acc [][]int64
	// Joined plans: lv holds one tuple batch per join level, and rv is
	// the row vectors of the batch the kernels are reading, which a
	// joined table's column leaves gather through.
	lv []joinLevel
	rv [][]int32
}

// Partial is the worker's state as FinalizeProbed merges it. A hashed
// partial aliases the worker, so Run pools workers only after finalize
// has consumed them; a direct-coded one is merged out of the code
// tables, which codePartial leaves reset.
func (w *fastWorker) Partial() *Partial {
	p := w.p
	switch {
	case p.codes != nil:
		return p.codePartial([]Worker{w})
	case !p.grouped:
		return &Partial{Scalar: append([]int64(nil), w.scalar...), Matched: w.matched}
	}
	g := &w.groups
	tuples := make([][]int64, g.n)
	for i := range tuples {
		tuples[i] = g.tuples[i*g.width : (i+1)*g.width]
	}
	return &Partial{Tuples: tuples, Aggs: g.acc, Matched: w.matched}
}

func (w *fastWorker) reset() {
	w.matched = 0
	w.resetScalars()
	if w.p.grouped && w.p.codes == nil {
		w.groups.reset()
	}
}

func (w *fastWorker) resetScalars() {
	for ai := range w.scalar {
		w.scalar[ai] = w.p.aggs[ai].seed
	}
}

// RunMorsel scans driver rows [start, end) chunk by chunk: filter to a
// selection vector, probe the joins, then fold the survivors.
func (w *fastWorker) RunMorsel(start, end int) {
	p := w.p
	if p.codes != nil && p.codes.chunked {
		w.runCoded(start, end)
		return
	}
	for lo := start; lo < end; lo += fastChunk {
		if p.foldRuns {
			w.foldRun(lo, min(lo+fastChunk, end))
			continue
		}
		sel := w.selectChunk(p.filter0, p.filter, lo, min(lo+fastChunk, end))
		switch {
		case len(sel) == 0:
		case len(p.joins) > 0:
			w.lv[0].rv[0] = sel
			w.probe(0, len(sel))
		default:
			w.fold(sel)
		}
	}
}

// selectChunk filters rows [lo, hi) of the table f0 and fs were
// compiled over: the range kernel (or every row), then each refining
// kernel on the rows still selected.
func (w *fastWorker) selectChunk(f0 rangeSelKernel, fs []selKernel, lo, hi int) []int32 {
	var sel []int32
	if f0 != nil {
		sel = f0(int32(lo), int32(hi), w.selBuf)
	} else {
		sel = w.selBuf[:hi-lo]
		for i := range sel {
			sel[i] = int32(lo + i)
		}
	}
	for _, f := range fs {
		if len(sel) == 0 {
			break
		}
		sel = f(w, sel)
	}
	return sel
}

// fold aggregates one batch of selected (and joined) rows.
func (w *fastWorker) fold(sel []int32) {
	w.matched += int64(len(sel))
	if w.p.grouped {
		w.foldGroups(sel)
	} else {
		w.foldScalar(sel)
	}
}

// foldScalar accumulates one chunk's selected rows into the scalar
// aggregates.
func (w *fastWorker) foldScalar(sel []int32) {
	n := len(sel)
	for ai := range w.p.aggs {
		a := &w.p.aggs[ai]
		switch {
		case a.kind == AggCount:
			w.scalar[ai] += int64(n)
		case a.v != nil:
			w.scalar[ai] = a.v.foldSel(a.kind, w.scalar[ai], sel)
		default:
			vals := w.val[:n]
			a.arg(w, sel, 0, vals)
			w.scalar[ai] = foldVals(a.kind, w.scalar[ai], vals)
		}
	}
}

// foldRun accumulates the contiguous rows [lo, hi) of a plan with no
// filter and no join into the scalar aggregates: a bare column folds
// its slice directly, with no selection vector to gather through.
func (w *fastWorker) foldRun(lo, hi int) {
	w.matched += int64(hi - lo)
	for ai := range w.p.aggs {
		a := &w.p.aggs[ai]
		switch {
		case a.kind == AggCount:
			w.scalar[ai] += int64(hi - lo)
		case a.v != nil:
			w.scalar[ai] = a.v.foldRun(a.kind, w.scalar[ai], lo, hi)
		default:
			vals := w.val[:hi-lo]
			a.arg(w, nil, lo, vals)
			w.scalar[ai] = foldVals(a.kind, w.scalar[ai], vals)
		}
	}
}

// foldGroups resolves one chunk's selected rows to group slots — code
// slots or hash-table groups — and folds every aggregate
// column-at-a-time.
func (w *fastWorker) foldGroups(sel []int32) {
	slots := w.slots[:len(sel)]
	if g := w.p.codes; g != nil {
		g.codeSlots(w.rv, sel, slots)
		countCodes(w.cnt, slots)
		w.foldGroupAggs(sel, slots, w.acc)
		return
	}
	w.hashSlots(sel, slots)
	w.foldGroupAggs(sel, slots, w.groups.acc)
}

// hashSlots resolves rows to group slots through the open-addressing
// table on the mixed key.
func (w *fastWorker) hashSlots(sel, slots []int32) {
	p := w.p
	n := len(sel)
	for k := range p.keys {
		p.keys[k](w, sel, 0, w.keyBufs[k][:n])
	}
	// The same mixed key GroupKey folds, vectorized over the chunk.
	mix := w.mix[:n]
	copy(mix, w.keyBufs[0][:n])
	for k := 1; k < p.nkeys; k++ {
		kb := w.keyBufs[k][:n]
		for i := range mix {
			mix[i] = mix[i]*1_000_003 + kb[i]
		}
	}
	g := &w.groups
	for i := 0; i < n; i++ {
		slots[i] = g.findOrInsert(mix[i], w.keyBufs, i)
	}
}

// foldGroupAggs folds every aggregate over the chunk's resolved slots
// into accs, the tables they index; a nil table is a COUNT the code
// tables' row counts answer.
func (w *fastWorker) foldGroupAggs(sel, slots []int32, accs [][]int64) {
	p := w.p
	n := len(sel)
	for ai := range p.aggs {
		a := &p.aggs[ai]
		acc := accs[ai]
		switch {
		case acc == nil:
		case a.kind == AggCount:
			for _, s := range slots {
				acc[s]++
			}
		case a.v != nil:
			a.v.foldGroup(a.kind, acc, sel, slots)
		default:
			vals := w.val[:n]
			a.arg(w, sel, 0, vals)
			foldGroupVals(a.kind, acc, vals, slots)
		}
	}
}

// fastGroups is the probe-free group table: open addressing over the
// mixed key, entries chained linearly, group identity decided by the
// full key tuple exactly like GroupTable.
type fastGroups struct {
	width  int
	n      int
	mask   uint64
	table  []int32 // slot -> group index + 1; 0 marks empty
	hashes []int64 // group -> mixed key
	tuples []int64 // group key tuples, flattened [group*width]
	acc    [][]int64
	seeds  []int64
}

func (g *fastGroups) init(p *FastPlan) {
	g.width = p.nkeys
	g.table = make([]int32, p.tableCap)
	g.mask = p.tableCap - 1
	g.acc = make([][]int64, len(p.aggs))
	g.seeds = make([]int64, len(p.aggs))
	for ai := range p.aggs {
		g.seeds[ai] = p.aggs[ai].seed
	}
}

func (g *fastGroups) reset() {
	for i := range g.table {
		g.table[i] = 0
	}
	g.hashes = g.hashes[:0]
	g.tuples = g.tuples[:0]
	for ai := range g.acc {
		g.acc[ai] = g.acc[ai][:0]
	}
	g.n = 0
}

// findOrInsert resolves row i of the key buffers (mixed key
// precomputed) to its group index, inserting on first sight.
func (g *fastGroups) findOrInsert(key int64, keys [][]int64, i int) int32 {
	s := (uint64(key) * fastHashMul >> 32) & g.mask
	for {
		t := g.table[s]
		if t == 0 {
			return g.insert(s, key, keys, i)
		}
		gi := t - 1
		if g.hashes[gi] == key && g.tupleEq(int(gi), keys, i) {
			return gi
		}
		s = (s + 1) & g.mask
	}
}

func (g *fastGroups) tupleEq(gi int, keys [][]int64, i int) bool {
	t := g.tuples[gi*g.width:]
	for k := 0; k < g.width; k++ {
		if t[k] != keys[k][i] {
			return false
		}
	}
	return true
}

func (g *fastGroups) insert(s uint64, key int64, keys [][]int64, i int) int32 {
	gi := int32(g.n)
	g.table[s] = gi + 1
	g.hashes = append(g.hashes, key)
	for k := 0; k < g.width; k++ {
		g.tuples = append(g.tuples, keys[k][i])
	}
	for ai := range g.acc {
		g.acc[ai] = append(g.acc[ai], g.seeds[ai])
	}
	g.n++
	if uint64(g.n)*4 > (g.mask+1)*3 {
		g.grow()
	}
	return gi
}

func (g *fastGroups) grow() {
	size := (g.mask + 1) * 2
	g.table = make([]int32, size)
	g.mask = size - 1
	for gi := 0; gi < g.n; gi++ {
		s := (uint64(g.hashes[gi]) * fastHashMul >> 32) & g.mask
		for g.table[s] != 0 {
			s = (s + 1) & g.mask
		}
		g.table[s] = int32(gi) + 1
	}
}

// fastCompiler lowers expressions and predicates to kernels, assigning
// scratch buffer slots as general shapes need them. Column leaves of
// table tab — the driver, or the build side being indexed — read the
// row a kernel is handed; any other table's gather through the row
// vectors of the join stage.
type fastCompiler struct {
	pl    *Pipeline
	b     *Bound
	tab   int
	nbufs int
}

func (fc *fastCompiler) buf() int {
	i := fc.nbufs
	fc.nbufs++
	return i
}

// fexpr is a compiled expression in the form its parent fuses on:
//   - a constant c[0] (con);
//   - a bilinear form c[0] + c[1]·x + c[2]·y + c[3]·x·y over bare driver
//     columns x and y. A one-column form has c[2] = c[3] = 0 (its y is
//     its x), and a bare column is the form c = identity;
//   - a general kernel under an affine map, c[0] + c[1]·eval.
//
// Constant +, − and × fold into the coefficients: those operations
// form a ring mod 2⁶⁴, so wrapping coefficients compute exactly what
// the interpreter's wrapping steps do. A pair of one-column forms
// combines into one form, a constant divisor fuses into the form's
// pass, and / is never folded.
type fexpr struct {
	eval vecKernel
	con  bool
	x, y fcol
	c    [4]int64
}

// fcol is a bare driver column and its index in the compiler's table.
type fcol struct {
	v   intCol
	col int
}

// identity is the coefficients of a bare column or an unmapped kernel.
var identity = [4]int64{0, 1, 0, 0}

// bare returns the column of a bare-column expression, else nil.
func (e fexpr) bare() intCol {
	if e.c == identity {
		return e.x.v
	}
	return nil
}

// hostInt lists the widths storage.Ints holds column values at.
type hostInt interface {
	uint8 | uint16 | uint32 | int64
}

// hostCol is a bare column's values at their host width. Every kernel
// that reads a column directly is one of its methods: one source,
// instantiated once per width.
type hostCol[T hostInt] []T

// intCol is a bare column's kernels, chosen for its width once, when
// the plan compiles (bareCol); no kernel reads through Ints.At.
type intCol interface {
	load() vecKernel
	gatherVia(t int) vecKernel
	probeUnique(x *joinIndex, rows, bout, pos []int32) int
	fused(y intCol, quot bool, c [4]int64, m uint64) vecKernel
	spanMask(c spanCond) func(r, e int) uint64
	gatherSpan(c spanCond) selKernel
	foldSel(kind AggKind, acc int64, sel []int32) int64
	foldRun(kind AggKind, acc int64, lo, hi int) int64
	foldGroup(kind AggKind, acc []int64, sel, slots []int32)
	keyCodes(codes []int32, lo, hi int, k codeKey, lanes int32)
	foldCodes(kind AggKind, acc []int64, codes []int32, lo, hi int)
	gatherCodes(slots, sel []int32, k codeKey)
}

// bareCol dispatches a column on its host width.
func bareCol(v *storage.Ints) intCol {
	switch s := v.Host().(type) {
	case []uint8:
		return hostCol[uint8](s)
	case []uint16:
		return hostCol[uint16](s)
	case []uint32:
		return hostCol[uint32](s)
	default:
		return hostCol[int64](s.([]int64))
	}
}

// kernel materializes an fexpr into a plain evaluation kernel.
func (fc *fastCompiler) kernel(e fexpr) vecKernel {
	switch {
	case e.con:
		c := e.c[0]
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			for i := range out {
				out[i] = c
			}
		}
	case e.bare() != nil:
		return e.x.v.load()
	case e.x.v != nil:
		return e.x.v.fused(e.y.v, false, e.c, 0)
	case e.c == identity:
		return e.eval
	}
	k, c0, c1 := e.eval, e.c[0], e.c[1]
	return func(w *fastWorker, rows []int32, lo int, out []int64) {
		k(w, rows, lo, out)
		for i, v := range out {
			out[i] = c0 + c1*v
		}
	}
}

// load widens the listed rows, or slices the run, into out.
func (v hostCol[T]) load() vecKernel {
	return func(w *fastWorker, rows []int32, lo int, out []int64) {
		if rows == nil {
			for i, x := range v[lo : lo+len(out)] {
				out[i] = int64(x)
			}
			return
		}
		for i, r := range rows {
			out[i] = int64(v[r])
		}
	}
}

func (fc *fastCompiler) expr(e *Expr) fexpr {
	switch e.Op {
	case OpConst:
		return fexpr{con: true, c: [4]int64{e.Val}}
	case OpCol:
		v := bareCol(fc.b.Tables[e.Tab][e.Col].V)
		if e.Tab != fc.tab {
			return fexpr{eval: v.gatherVia(e.Tab), c: identity}
		}
		return fexpr{x: fcol{v, e.Col}, y: fcol{v, e.Col}, c: identity}
	}
	l, r := fc.expr(e.L), fc.expr(e.R)
	switch {
	case l.con && r.con:
		return fexpr{con: true, c: [4]int64{applyOp(e.Op, l.c[0], r.c[0])}}
	case e.Op == OpDiv && r.con:
		return fc.divConst(l, r.c[0])
	case e.Op == OpDiv: // by a column: a quotient pair, or general
	case r.con:
		return l.fold(e.Op, r.c[0], false)
	case l.con:
		return r.fold(e.Op, l.c[0], true)
	}
	if l.x.v != nil && r.x.v != nil && l.c[2]|l.c[3]|r.c[2]|r.c[3] == 0 {
		return pair(e.Op, l, r)
	}
	return fexpr{eval: opGeneral(e.Op, fc.kernel(l), fc.kernel(r), fc.buf()), c: identity}
}

// fold applies e op k, or k op e with kLeft, for op +, − or × to e's
// coefficients. An expression left depending on no row is a constant.
func (e fexpr) fold(op ExprOp, k int64, kLeft bool) fexpr {
	switch {
	case op == OpAdd:
		e.c[0] += k
	case op == OpMul:
		for i := range e.c {
			e.c[i] *= k
		}
	case kLeft: // k − e
		return e.fold(OpMul, -1, false).fold(OpAdd, k, false)
	default:
		e.c[0] -= k
	}
	if e.c[1] == 0 && e.c[2] == 0 && e.c[3] == 0 {
		return fexpr{con: true, c: [4]int64{e.c[0]}}
	}
	return e
}

// pair combines the one-column forms l = a + b·x and r = p + q·y: into
// one form for +, − and ×, whose product expands exactly mod 2⁶⁴, and
// into the fused quotient pass for /.
func pair(op ExprOp, l, r fexpr) fexpr {
	a, b, p, q := l.c[0], l.c[1], r.c[0], r.c[1]
	f := fexpr{x: l.x, y: r.x}
	switch op {
	case OpAdd:
		f.c = [4]int64{a + p, b, q, 0}
	case OpSub:
		f.c = [4]int64{a - p, b, -q, 0}
	case OpMul:
		f.c = [4]int64{a * p, b * p, a * q, b * q}
	default: // OpDiv
		return fexpr{eval: l.x.v.fused(r.x.v, true, [4]int64{a, b, p, q}, 0), c: identity}
	}
	return f.fold(OpAdd, 0, false) // products of even coefficients can wrap to a constant
}

// divConst compiles e / d. Dividing by zero yields 0 for every row. A
// form whose values provably lie in [0, 2³²) divides within its own
// pass by an unsigned reciprocal (unsignedDiv); any other dividend
// divides in place after its kernel (signedDiv).
func (fc *fastCompiler) divConst(e fexpr, d int64) fexpr {
	if d == 0 {
		return fexpr{con: true}
	}
	if m, ok := fc.unsignedDiv(e, d); ok {
		return fexpr{eval: e.x.v.fused(e.y.v, false, e.c, m), c: identity}
	}
	return fexpr{eval: signedDiv(fc.kernel(e), d), c: identity}
}

// fused dispatches the fused pass (fusedPass) on y's width.
func (v hostCol[T]) fused(y intCol, quot bool, c [4]int64, m uint64) vecKernel {
	switch yv := y.(type) {
	case hostCol[uint8]:
		return fusedPass(v, yv, quot, c, m)
	case hostCol[uint16]:
		return fusedPass(v, yv, quot, c, m)
	case hostCol[uint32]:
		return fusedPass(v, yv, quot, c, m)
	default:
		return fusedPass(v, yv.(hostCol[int64]), quot, c, m)
	}
}

// fusedPass is one pass over columns xs and ys, specialized for both
// widths, that computes per row the form c0 + c1·x + c2·y + c3·x·y —
// with m ≠ 0 divided, as the high half of its product with m (divU32) —
// or with quot the quotient (c0 + c1·x) / (c2 + c3·y).
func fusedPass[TX, TY hostInt](xs hostCol[TX], ys hostCol[TY], quot bool, c [4]int64, m uint64) vecKernel {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	switch {
	case quot:
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			if rows == nil {
				x, y := xs[lo:lo+len(out)], ys[lo:lo+len(out)]
				for i, xv := range x {
					out[i] = quo(c0+c1*int64(xv), c2+c3*int64(y[i]))
				}
				return
			}
			for i, r := range rows {
				out[i] = quo(c0+c1*int64(xs[r]), c2+c3*int64(ys[r]))
			}
		}
	case m == 0:
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			if rows == nil {
				x, y := xs[lo:lo+len(out)], ys[lo:lo+len(out)]
				for i, xv := range x {
					yv := int64(y[i])
					out[i] = c0 + c2*yv + int64(xv)*(c1+c3*yv)
				}
				return
			}
			for i, r := range rows {
				yv := int64(ys[r])
				out[i] = c0 + c2*yv + int64(xs[r])*(c1+c3*yv)
			}
		}
	}
	// Dividing costs one multiply and no shift: no register holds a
	// shift count, and nothing of the loop spills.
	return func(w *fastWorker, rows []int32, lo int, out []int64) {
		if rows == nil {
			x, y := xs[lo:lo+len(out)], ys[lo:lo+len(out)]
			for i, xv := range x {
				yv := int64(y[i])
				q, _ := bits.Mul64(uint64(c0+c2*yv+int64(xv)*(c1+c3*yv)), m)
				out[i] = int64(q)
			}
			return
		}
		for i, r := range rows {
			yv := int64(ys[r])
			q, _ := bits.Mul64(uint64(c0+c2*yv+int64(xs[r])*(c1+c3*yv)), m)
			out[i] = int64(q)
		}
	}
}

// unsignedDiv returns the reciprocal (divU32) that divides form e by d
// within its pass, when every value e takes provably lies in [0, 2³²).
// A bilinear form takes its extremes at the corners of its columns' box
// of extremes, each evaluated exactly (formAt); ok is false for a
// dividend that is not a form, an empty column, a corner outside
// [0, 2³²) or one that overflows.
func (fc *fastCompiler) unsignedDiv(e fexpr, d int64) (m uint64, ok bool) {
	m, ok = divU32(d)
	if !ok || e.x.v == nil {
		return 0, false
	}
	xl, xh, okx := fc.colRange(e.x)
	yl, yh, oky := fc.colRange(e.y)
	if !okx || !oky {
		return 0, false
	}
	for _, x := range [2]int64{xl, xh} {
		for _, y := range [2]int64{yl, yh} {
			if v, exact := formAt(e.c, x, y); !exact || v < 0 || v >= 1<<32 {
				return 0, false
			}
		}
	}
	return m, true
}

// formAt evaluates c0 + c1·x + c2·y + c3·x·y; exact is false when any
// step overflows int64.
func formAt(c [4]int64, x, y int64) (v int64, exact bool) {
	v, exact = c[0], true
	addProduct := func(a, b int64) {
		p := a * b
		s := v + p
		exact = exact && mulHi(a, b) == p>>63 && (s > v) == (p > 0)
		v = s
	}
	addProduct(c[1], x)
	addProduct(c[2], y)
	if c[3] != 0 {
		exact = exact && mulHi(x, y) == (x*y)>>63
		addProduct(c[3], x*y)
	}
	return v, exact
}

// divU32 returns the reciprocal m that divides every n in [0, 2³²) by
// d as the high 64 bits of n·m. With k = ⌈2ˢ/d⌉ and e = k·d − 2ˢ ≤ 2ˢ⁻³²,
// writing n = q·d + r gives n·k/2ˢ = q + (r + n·e/2ˢ)/d, and n·e < 2ˢ
// keeps the fraction below 1; m = k·2⁶⁴⁻ˢ < 2⁶⁴ turns the shift into
// the high half. The least s ≥ 32 that bounds e wins; it exists by
// s = 32 + ⌈log₂ d⌉ ≤ 63, where e < d ≤ 2ˢ⁻³². ok is false for d < 2
// and d ≥ 2³¹.
func divU32(d int64) (m uint64, ok bool) {
	if d < 2 || d >= 1<<31 {
		return 0, false
	}
	for s := uint(32); ; s++ {
		k := (1<<s + uint64(d) - 1) / uint64(d)
		if k*uint64(d)-1<<s <= 1<<(s-32) {
			return k << (64 - s), true
		}
	}
}

// quo is the interpreter's division: truncating, 0 on a zero divisor.
func quo(n, d int64) int64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// applyOp evaluates one arithmetic node over constants, with the same
// truncating, zero-divisor-yields-zero division the engines interpret.
func applyOp(op ExprOp, l, r int64) int64 {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	}
	return quo(l, r)
}

// signedDiv divides inner's values by the constant d ≠ 0 in place.
// Hardware signed division costs tens of cycles per row even with a
// constant divisor a closure hides from the compiler; the
// multiply-shift equivalent (divMagic) costs a handful. ±1 and MinInt64
// have no magic and divide in hardware.
func signedDiv(inner vecKernel, d int64) vecKernel {
	if d == 1 || d == -1 || d == math.MinInt64 {
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			inner(w, rows, lo, out)
			for i := range out {
				out[i] /= d
			}
		}
	}
	m, s := divMagic(d)
	var adj int64
	if d > 0 && m < 0 {
		adj = 1
	} else if d < 0 && m > 0 {
		adj = -1
	}
	return func(w *fastWorker, rows []int32, lo int, out []int64) {
		inner(w, rows, lo, out)
		for i, n := range out {
			q := mulHi(m, n) + n*adj
			q >>= s
			out[i] = q + int64(uint64(q)>>63)
		}
	}
}

// mulHi returns the high 64 bits of the signed 128-bit product a*b.
func mulHi(a, b int64) int64 {
	hi, _ := bits.Mul64(uint64(a), uint64(b))
	return int64(hi) - ((a >> 63) & b) - ((b >> 63) & a)
}

// divMagic computes the multiplier and shift that replace truncated
// signed division by d (Hacker's Delight, 10-4; Warren's magic()).
// Valid for every d except 0, ±1 and MinInt64, which callers handle.
func divMagic(d int64) (m int64, s uint) {
	ad := uint64(d)
	if d < 0 {
		ad = -ad
	}
	t := uint64(1)<<63 + uint64(d)>>63
	anc := t - 1 - t%ad
	p := uint(63)
	q1 := (uint64(1) << 63) / anc
	r1 := uint64(1)<<63 - q1*anc
	q2 := (uint64(1) << 63) / ad
	r2 := uint64(1)<<63 - q2*ad
	for {
		p++
		q1 <<= 1
		r1 <<= 1
		if r1 >= anc {
			q1++
			r1 -= anc
		}
		q2 <<= 1
		r2 <<= 1
		if r2 >= ad {
			q2++
			r2 -= ad
		}
		if delta := ad - r2; q1 < delta || (q1 == delta && r1 == 0) {
			continue
		}
		break
	}
	m = int64(q2 + 1)
	if d < 0 {
		m = -m
	}
	return m, p - 64
}

// opGeneral evaluates both sides (right into scratch slot sb) and
// combines: the trees fusion does not cover — joined-table columns,
// divisors that are not constants or one-column forms, and more than
// two columns.
func opGeneral(op ExprOp, lk, rk vecKernel, sb int) vecKernel {
	switch op {
	case OpAdd:
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			t := w.scratch[sb][:len(out)]
			rk(w, rows, lo, t)
			lk(w, rows, lo, out)
			for i := range out {
				out[i] += t[i]
			}
		}
	case OpSub:
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			t := w.scratch[sb][:len(out)]
			rk(w, rows, lo, t)
			lk(w, rows, lo, out)
			for i := range out {
				out[i] -= t[i]
			}
		}
	case OpMul:
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			t := w.scratch[sb][:len(out)]
			rk(w, rows, lo, t)
			lk(w, rows, lo, out)
			for i := range out {
				out[i] *= t[i]
			}
		}
	default: // OpDiv
		return func(w *fastWorker, rows []int32, lo int, out []int64) {
			t := w.scratch[sb][:len(out)]
			rk(w, rows, lo, t)
			lk(w, rows, lo, out)
			for i := range out {
				out[i] = quo(out[i], t[i])
			}
		}
	}
}

// spanCond is one column-versus-constant conjunct normalized to an
// inclusive value range over the column's own rebased domain. With
// cmin/cmax the extremes actually present, every value rebases to
// d = x - cmin in [0, R] (R = cmax - cmin, required < 2^62), and the
// requested range clamps to rebased bounds a <= d < s1. Containment is
// then two sign-bit extractions — (d-s1)>>63 catches d < s1, the
// complement of (d-a)>>63 catches d >= a — with no wraparound cases,
// because d, a and s1-1 all sit in [0, R] far below 2^63. Flag-setting
// compares (SETcc) serialize badly on some hosts; shifts do not, which
// is why the scan tests are phrased this way. neg is 1 for Ne (keep
// rows outside the point range).
type spanCond struct {
	v    intCol
	col  int    // the column's index in its table
	base uint64 // uint64(cmin), the rebasing offset
	top  uint64 // R = cmax - cmin, the rebased domain's top
	a    uint64 // lower bound, rebased
	s1   uint64 // upper bound + 1, rebased
	neg  int
	// est is the fraction of rows expected to pass under a uniform
	// assumption over the column's observed range — only an ordering
	// heuristic, never a correctness input.
	est float64
}

// condStatus classifies a conjunct for fusion.
type condStatus int

const (
	condYes    condStatus = iota // normalized into a spanCond
	condNo                       // not a fusable column-versus-constant shape
	condNever                    // no present value satisfies it: zero rows match
	condAlways                   // every present value satisfies it: drop it
)

// colRange reports the extreme values present in the bare column x:
// the rebased range tests, the group codes and the unsigned division
// are only valid against a column's true extremes. The column recorded
// them as it was built (storage.Ints), so nothing is scanned here.
func (fc *fastCompiler) colRange(x fcol) (int64, int64, bool) {
	return fc.b.Tables[fc.tab][x.col].V.Extremes()
}

// spanCond normalizes a conjunct into a spanCond when it compares one
// bare column against constants, clamping the requested range to the
// values the column actually holds. The clamp cannot change which rows
// match, so it is free to reclassify: an empty intersection matches
// nothing, a full cover matches everything.
func (fc *fastCompiler) spanCond(p *Pred) (spanCond, condStatus) {
	var x fcol
	var lo, hi int64
	neg := 0
	switch p.Op {
	case PredCmp:
		a, b := fc.expr(p.A), fc.expr(p.B)
		op := p.Cmp
		if a.con && !b.con {
			a, b = b, a
			op = mirrorCmp(op)
		}
		if !b.con || a.bare() == nil {
			return spanCond{}, condNo
		}
		x = a.x
		if op == Ne {
			lo, hi, neg = b.c[0], b.c[0], 1
		} else {
			var ok bool
			lo, hi, ok = cmpRange(op, b.c[0])
			if !ok {
				return spanCond{}, condNever
			}
		}
	case PredBetween:
		xe, l, h := fc.expr(p.A), fc.expr(p.B), fc.expr(p.C)
		if !l.con || !h.con || xe.bare() == nil {
			return spanCond{}, condNo
		}
		x, lo, hi = xe.x, l.c[0], h.c[0]
	default:
		return spanCond{}, condNo
	}
	cmin, cmax, ok := fc.colRange(x)
	if !ok {
		return spanCond{}, condNever // empty column: no row to match
	}
	if uint64(cmax)-uint64(cmin) >= 1<<62 {
		return spanCond{}, condNo // rebased domain too wide for shift tests
	}
	if lo < cmin {
		lo = cmin
	}
	if hi > cmax {
		hi = cmax
	}
	if lo > hi { // no present value inside the range
		if neg == 1 {
			return spanCond{}, condAlways
		}
		return spanCond{}, condNever
	}
	if lo == cmin && hi == cmax { // every present value inside the range
		if neg == 1 {
			return spanCond{}, condNever
		}
		return spanCond{}, condAlways
	}
	base := uint64(cmin)
	est := float64(hi-lo+1) / float64(uint64(cmax)-uint64(cmin)+1)
	if neg == 1 {
		est = 1 - est
	}
	return spanCond{
		v: x.v, col: x.col, base: base, top: uint64(cmax) - base,
		a: uint64(lo) - base, s1: uint64(hi) - base + 1, neg: neg,
		est: est,
	}, condYes
}

// pred normalizes a filter: every column-versus-constant conjunct
// becomes a spanCond, the non-negated ones on one column intersected
// into one (mergeSpan), sorted by estimated selectivity, cheapest-first —
// AND commutes, so any order yields the same row set. Computed
// conjuncts become sel kernels, and never reports a conjunct, or an
// intersection, no present value satisfies.
func (fc *fastCompiler) pred(p *Pred) (conds []spanCond, rest []selKernel, never bool) {
	if p == nil {
		return nil, nil, false
	}
	for _, c := range p.Conjuncts() {
		sc, st := fc.spanCond(c)
		switch st {
		case condYes:
			if conds, never = mergeSpan(conds, sc); never {
				return nil, nil, true
			}
		case condNever:
			return nil, nil, true
		case condAlways:
			// vacuously true on this data: contributes nothing
		default:
			rest = append(rest, fc.sel(c))
		}
	}
	sort.SliceStable(conds, func(i, j int) bool { return conds[i].est < conds[j].est })
	return conds, rest, false
}

// mergeSpan adds c to conds, intersected with the non-negated span on
// the same column when there is one: a ≤ d < s1 and a' ≤ d < s1' hold
// together exactly when max(a, a') ≤ d < min(s1, s1'), so a range
// written as two comparisons scans as one span. never reports an empty
// intersection. A negated span is a hole, not a range, and stays apart.
func mergeSpan(conds []spanCond, c spanCond) (_ []spanCond, never bool) {
	if c.neg == 0 {
		for i := range conds {
			m := &conds[i]
			if m.col != c.col || m.neg != 0 {
				continue
			}
			m.a, m.s1 = max(m.a, c.a), min(m.s1, c.s1)
			if m.a >= m.s1 {
				return nil, true
			}
			m.est = float64(m.s1-m.a) / float64(m.top+1)
			return conds, false
		}
	}
	return append(conds, c), false
}

// stageSpans lowers normalized conjuncts to the staged executor form:
// the most selective spanCond runs as the full range scan, the others
// as gathered tests over the already-shrunk selection, and computed
// conjuncts — the expensive shapes — refine last.
func stageSpans(conds []spanCond, rest []selKernel) (rangeSelKernel, []selKernel) {
	if len(conds) == 0 {
		return nil, rest
	}
	kernels := make([]selKernel, 0, len(conds)-1+len(rest))
	for _, c := range conds[1:] {
		kernels = append(kernels, c.v.gatherSpan(c))
	}
	kernels = append(kernels, rest...)
	return firstSpan(conds[0].v.spanMask(conds[0])), kernels
}

// SampleFilter counts the driver rows 0, stride, 2·stride, … that pass
// pl's filter, and how many it tested, through the fast plan's span and
// selection kernels, fastChunk rows at a time: the planner's sampled
// selectivity at kernel speed. ok is false where no kernel compiles, a
// driver past MaxInt32 rows, and the caller tests the rows itself.
func SampleFilter(pl *Pipeline, b *Bound, stride int) (sampled, passed int, ok bool) {
	n := pl.Tables[0].Rows
	if n > math.MaxInt32 {
		return 0, 0, false
	}
	sampled = (n + stride - 1) / stride
	fc := &fastCompiler{pl: pl, b: b}
	conds, rest, never := fc.pred(pl.Filter)
	if never {
		return sampled, 0, true
	}
	kernels := make([]selKernel, 0, len(conds)+len(rest))
	for _, c := range conds {
		kernels = append(kernels, c.v.gatherSpan(c))
	}
	kernels = append(kernels, rest...)
	w := &fastWorker{scratch: scratchBufs(fc.nbufs)}
	buf := make([]int32, fastChunk)
	for r := 0; r < n; {
		sel := buf[:0]
		for ; len(sel) < fastChunk && r < n; r += stride {
			sel = append(sel, int32(r))
		}
		for _, f := range kernels {
			sel = f(w, sel)
		}
		passed += len(sel)
	}
	return sampled, passed, true
}

// neverMatch is the range kernel of an unsatisfiable filter.
func neverMatch(lo, hi int32, out []int32) []int32 { return out[:0] }

// gatherSpan refines an existing selection against one condition: a
// gathered load and spanCond's shift tests, priced only on the rows
// earlier stages kept.
func (v hostCol[T]) gatherSpan(c spanCond) selKernel {
	base, a, s1, neg := c.base, c.a, c.s1, c.neg
	if a == 0 {
		return func(w *fastWorker, rows []int32) []int32 {
			n := 0
			for _, r := range rows {
				rows[n] = r
				n += int((uint64(v[r])-base-s1)>>63) ^ neg
			}
			return rows[:n]
		}
	}
	return func(w *fastWorker, rows []int32) []int32 {
		n := 0
		for _, r := range rows {
			d := uint64(v[r]) - base
			rows[n] = r
			n += int(((d-s1)>>63)&(((d-a)>>63)^1)) ^ neg
		}
		return rows[:n]
	}
}

// sel compiles one conjunct into a selection-refining kernel.
func (fc *fastCompiler) sel(p *Pred) selKernel {
	if p.Op == PredCmp {
		a, b := fc.expr(p.A), fc.expr(p.B)
		op := p.Cmp
		if a.con && !b.con {
			a, b = b, a
			op = mirrorCmp(op)
		}
		if a.con && b.con {
			return constSel(cmpVals(op, a.c[0], b.c[0]))
		}
		ka, kb := fc.kernel(a), fc.kernel(b)
		ia, ib := fc.buf(), fc.buf()
		cop := op
		return func(w *fastWorker, rows []int32) []int32 {
			n := len(rows)
			av, bv := w.scratch[ia][:n], w.scratch[ib][:n]
			ka(w, rows, 0, av)
			kb(w, rows, 0, bv)
			m := 0
			for i := 0; i < n; i++ {
				rows[m] = rows[i]
				if cmpVals(cop, av[i], bv[i]) {
					m++
				}
			}
			return rows[:m]
		}
	}
	// PredBetween: Conjuncts flattened every PredAnd.
	x, lo, hi := fc.expr(p.A), fc.expr(p.B), fc.expr(p.C)
	kx, kl, kh := fc.kernel(x), fc.kernel(lo), fc.kernel(hi)
	ix, il, ih := fc.buf(), fc.buf(), fc.buf()
	return func(w *fastWorker, rows []int32) []int32 {
		n := len(rows)
		xv, lv, hv := w.scratch[ix][:n], w.scratch[il][:n], w.scratch[ih][:n]
		kx(w, rows, 0, xv)
		kl(w, rows, 0, lv)
		kh(w, rows, 0, hv)
		m := 0
		for i := 0; i < n; i++ {
			rows[m] = rows[i]
			if xv[i] >= lv[i] && xv[i] <= hv[i] {
				m++
			}
		}
		return rows[:m]
	}
}

// constSel keeps everything or nothing.
func constSel(keep bool) selKernel {
	if keep {
		return func(w *fastWorker, rows []int32) []int32 { return rows }
	}
	return func(w *fastWorker, rows []int32) []int32 { return rows[:0] }
}

// mirrorCmp flips a comparison around swapped operands.
func mirrorCmp(op CmpOp) CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op
}

// cmpRange rewrites a one-sided comparison against a constant as the
// inclusive value range it admits; ok is false when no value satisfies
// it. Ne is not a range and is handled by its caller.
func cmpRange(op CmpOp, c int64) (lo, hi int64, ok bool) {
	switch op {
	case Lt:
		if c == math.MinInt64 {
			return 0, 0, false
		}
		return math.MinInt64, c - 1, true
	case Le:
		return math.MinInt64, c, true
	case Gt:
		if c == math.MaxInt64 {
			return 0, 0, false
		}
		return c + 1, math.MaxInt64, true
	case Ge:
		return c, math.MaxInt64, true
	default: // Eq
		return c, c, true
	}
}

// foldSel folds a bare column's selected rows into a scalar
// accumulator (COUNT handled by the caller).
func (v hostCol[T]) foldSel(kind AggKind, acc int64, sel []int32) int64 {
	switch kind {
	case AggSum:
		for _, r := range sel {
			acc += int64(v[r])
		}
	case AggMin:
		for _, r := range sel {
			if x := int64(v[r]); x < acc {
				acc = x
			}
		}
	case AggMax:
		for _, r := range sel {
			if x := int64(v[r]); x > acc {
				acc = x
			}
		}
	}
	return acc
}

// foldRun folds a bare column's rows [lo, hi) into a scalar
// accumulator.
func (v hostCol[T]) foldRun(kind AggKind, acc int64, lo, hi int) int64 {
	return foldVals(kind, acc, v[lo:hi])
}

// foldVals folds contiguous values into a scalar accumulator. MIN and
// MAX keep four accumulators: the compiler turns each compare into a
// conditional move, and one accumulator would chain every row's move
// on the one before it.
func foldVals[T hostInt](kind AggKind, acc int64, vals []T) int64 {
	switch kind {
	case AggSum:
		for _, x := range vals {
			acc += int64(x)
		}
	case AggMin:
		a0, a1, a2, a3 := acc, acc, acc, acc
		for ; len(vals) >= 4; vals = vals[4:] {
			a0, a1 = min(a0, int64(vals[0])), min(a1, int64(vals[1]))
			a2, a3 = min(a2, int64(vals[2])), min(a3, int64(vals[3]))
		}
		for _, x := range vals {
			a0 = min(a0, int64(x))
		}
		acc = min(a0, a1, a2, a3)
	case AggMax:
		a0, a1, a2, a3 := acc, acc, acc, acc
		for ; len(vals) >= 4; vals = vals[4:] {
			a0, a1 = max(a0, int64(vals[0])), max(a1, int64(vals[1]))
			a2, a3 = max(a2, int64(vals[2])), max(a3, int64(vals[3]))
		}
		for _, x := range vals {
			a0 = max(a0, int64(x))
		}
		acc = max(a0, a1, a2, a3)
	}
	return acc
}

// foldGroup folds a bare column into per-group accumulators.
func (v hostCol[T]) foldGroup(kind AggKind, acc []int64, sel, slots []int32) {
	switch kind {
	case AggSum:
		for i, s := range slots {
			acc[s] += int64(v[sel[i]])
		}
	case AggMin:
		for i, s := range slots {
			if x := int64(v[sel[i]]); x < acc[s] {
				acc[s] = x
			}
		}
	case AggMax:
		for i, s := range slots {
			if x := int64(v[sel[i]]); x > acc[s] {
				acc[s] = x
			}
		}
	}
}

// foldGroupVals folds evaluated values into per-group accumulators.
func foldGroupVals(kind AggKind, acc []int64, vals []int64, slots []int32) {
	switch kind {
	case AggSum:
		for i, s := range slots {
			acc[s] += vals[i]
		}
	case AggMin:
		for i, s := range slots {
			if x := vals[i]; x < acc[s] {
				acc[s] = x
			}
		}
	case AggMax:
		for i, s := range slots {
			if x := vals[i]; x > acc[s] {
				acc[s] = x
			}
		}
	}
}
