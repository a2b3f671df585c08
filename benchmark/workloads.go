package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// checksum is engine.Result.Check, kept in the sixteen hex digits the
// result line prints so golden.json greps against server output.
type checksum uint64

func (c checksum) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%016x", uint64(c))), nil
}

func (c *checksum) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	*c = checksum(v)
	return err
}

// answer is the comparable part of one result: what a result line
// carries as sum=, rows= and check=.
type answer struct {
	Sum   int64    `json:"sum"`
	Rows  int64    `json:"rows"`
	Check checksum `json:"check"`
}

func (a answer) String() string {
	return fmt.Sprintf("sum=%d rows=%d check=%016x", a.Sum, a.Rows, uint64(a.Check))
}

// statement is one fixed statement of the benchmark. A statement with
// args is a prepared template (`?` placeholders) and is only ever sent
// as prepare + execute with one of those tuples; the tuples are fixed
// so golden.json can hold their answers, the seed only picks among
// them.
type statement struct {
	name string
	sql  string
	args [][]int64
}

const (
	sqlQ6 = "select sum(l_extendedprice * l_discount / 100) from lineitem " +
		"where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' " +
		"and l_discount between 5 and 7 and l_quantity < 24"
	sqlQ1Fused = "select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), count(*) " +
		"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus"
	sqlJoin2 = "select count(*), sum(o_totalprice) from lineitem join orders on l_orderkey = o_orderkey " +
		"where l_shipdate > date '1995-03-15' and o_orderdate < date '1995-03-15'"
)

// catalog lists every fixed statement.
var catalog = []statement{
	// fast_scan: one statement per relop/fast.go path.
	{name: "q6", sql: sqlQ6},
	{name: "q1_fused", sql: sqlQ1Fused},
	{name: "q1_expr", sql: "select l_returnflag, l_linestatus, sum(l_extendedprice * (100 - l_discount) / 100), count(*) " +
		"from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus"},
	{name: "minmax", sql: "select min(l_extendedprice), max(l_extendedprice), min(l_shipdate), max(l_shipdate) from lineitem"},
	{name: "hashgrp_topk", sql: "select l_suppkey, sum(l_quantity) from lineitem group by l_suppkey order by 2 desc limit 10"},

	// fast_frame: statements whose execution is a few microseconds, so
	// the round trip is the frame. noop_never's predicate is outside
	// the column's min/max statistics and clamps to never-match.
	{name: "noop_never", sql: "select count(*) from orders where o_totalprice < 0"},
	{name: "nation_count", sql: "select count(*) from nation"},
	{name: "nation_group", sql: "select n_regionkey, count(*) from nation group by n_regionkey"},
	{name: "region_count", sql: "select count(*) from region"},
	{name: "p_noop", sql: "select count(*) from orders where o_totalprice < ?",
		args: [][]int64{{-1}, {-2}, {-3}, {-4}, {-5}, {-6}, {-7}, {-8}}},
	{name: "p_nation", sql: "select count(*) from nation where n_nationkey < ?",
		args: [][]int64{{4}, {7}, {10}, {13}, {16}, {19}, {22}, {25}}},
	{name: "p_nation_group", sql: "select n_regionkey, count(*) from nation where n_nationkey >= ? group by n_regionkey",
		args: [][]int64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}},
	{name: "p_region", sql: "select count(*) from region where r_regionkey <= ?",
		args: [][]int64{{0}, {1}, {2}, {3}, {4}}},

	// fast_join: the shapes the vectorized plan does not cover, which
	// run the engines with a nil probe on the shared pool.
	{name: "join2", sql: sqlJoin2},
	{name: "join_oc", sql: "select c_nationkey, count(*), sum(o_totalprice) from orders join customer on o_custkey = c_custkey " +
		"where c_mktsegment = 1 group by c_nationkey"},
	{name: "q3", sql: "select l_orderkey, sum(l_extendedprice * (100 - l_discount) / 100) as revenue, o_orderdate, o_shippriority " +
		"from lineitem join orders on l_orderkey = o_orderkey join customer on o_custkey = c_custkey " +
		"where c_mktsegment = 1 and o_orderdate < date '1995-03-15' and l_shipdate > date '1995-03-15' " +
		"group by l_orderkey, o_orderdate, o_shippriority order by revenue desc, o_orderdate limit 10"},

	// measured_profile: orders-sized statements (join_oc is shared with
	// fast_join, so one statement is answered in both modes).
	{name: "ord_q6", sql: "select sum(o_totalprice), count(*) from orders " +
		"where o_orderdate >= date '1994-01-01' and o_orderdate < date '1995-01-01' and o_totalprice < 20000000"},
	{name: "ord_group", sql: "select o_shippriority, count(*), sum(o_totalprice) from orders group by o_shippriority"},
}

func findStatement(name string) statement {
	for _, s := range catalog {
		if s.name == name {
			return s
		}
	}
	panic("benchmark: no statement named " + name)
}

type verb int

const (
	verbQuery   verb = iota // synchronous: answered by its result line
	verbSubmit              // asynchronous: "ok id=N", later "result id=N"
	verbExecute             // asynchronous, prepared statement + arguments
)

// slot is one entry of a workload's mix: weight copies of it go into
// every cycle of the request sequence.
type slot struct {
	stmt   string
	verb   verb
	weight int
}

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name string
	why  string
	// fast selects `fast on` sessions; measured mode otherwise.
	fast bool
	// depth is the most requests one connection keeps in flight.
	depth int
	// mix is one cycle of the sequence; adhoc workloads draw from the
	// seeded literal pool instead.
	mix   []slot
	adhoc bool
}

var workloads = []workload{
	{
		name: "fast_scan", fast: true, depth: 1,
		why: "join-free lineitem scans, one per fast kernel path: the fast kernels do nearly all the work, the frame next to none",
		mix: []slot{{"q6", verbQuery, 1}, {"q1_fused", verbQuery, 1}, {"q1_expr", verbQuery, 1},
			{"minmax", verbQuery, 1}, {"hashgrp_topk", verbQuery, 1}},
	},
	{
		name: "fast_frame", fast: true, depth: 4,
		why: "microsecond statements as query, submit and prepare/execute, pipelined 4 deep: session, lexer, plan-cache hit and admission do the work, kernels about a tenth",
		mix: []slot{
			{"noop_never", verbQuery, 1}, {"nation_count", verbQuery, 1}, {"nation_group", verbQuery, 1}, {"region_count", verbQuery, 1},
			{"noop_never", verbSubmit, 1}, {"nation_count", verbSubmit, 1}, {"nation_group", verbSubmit, 1}, {"region_count", verbSubmit, 1},
			{"p_noop", verbExecute, 1}, {"p_nation", verbExecute, 1}, {"p_nation_group", verbExecute, 1}, {"p_region", verbExecute, 1},
		},
	},
	{
		name: "adhoc_compile", fast: true, depth: 1, adhoc: true,
		why: "seeded literals, about 2048 distinct bound plans against the 64-entry plan cache: nearly every statement misses, so bind, fast-plan compilation, inserts and evictions run beside lookups",
	},
	{
		name: "fast_join", fast: true, depth: 1,
		why: "joins in fast mode: the only path that runs the engines with a nil probe on the shared pool",
		mix: []slot{{"join2", verbQuery, 1}, {"join_oc", verbQuery, 1}, {"q3", verbQuery, 1}},
	},
	{
		name: "measured_profile", fast: false, depth: 1,
		why: "measured mode on orders-sized statements: engine, probe and cache simulator do nine tenths of the work; fast-kernel changes must leave it flat",
		mix: []slot{{"ord_q6", verbQuery, 3}, {"ord_group", verbQuery, 3}, {"join_oc", verbQuery, 2}},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// request is one command line ready to send, with the answer its
// result line must carry. sql, args and hasArgs repeat the statement
// for the traced run, which calls the layers below the protocol.
type request struct {
	line    []byte
	sync    bool
	key     string // oracle key: statement name, "/"-joined with the argument tuple
	want    answer
	sql     string
	args    []int64
	hasArgs bool
}

func joinArgs(args []int64, sep string) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = strconv.FormatInt(a, 10)
	}
	return strings.Join(parts, sep)
}

func oracleKey(name string, args []int64) string {
	if args == nil {
		return name
	}
	return name + "/" + joinArgs(args, ",")
}

func newRequest(v verb, s statement, args []int64, want answer) request {
	r := request{sync: v == verbQuery, key: oracleKey(s.name, args), want: want, sql: s.sql, args: args, hasArgs: args != nil}
	switch v {
	case verbQuery:
		r.line = []byte("query " + s.sql + "\n")
	case verbSubmit:
		r.line = []byte("submit " + s.sql + "\n")
	case verbExecute:
		r.line = []byte("execute " + s.name + " " + joinArgs(args, " ") + "\n")
	}
	return r
}

// adhocPoolSize is the number of literal tuples drawn per template;
// four templates make ~2048 distinct bound plans.
const adhocPoolSize = 512

// rangePred is lo <= col < hi.
type rangePred struct {
	col    string
	lo, hi int64
}

// rangeQuery is the shape of every adhoc_compile statement — one
// table, a conjunction of ranges, one count or sum — in the form the
// naive evaluator (oracle.go) runs. sumA == "" is count(*); sumB == ""
// is sum(sumA); otherwise sum(sumA * sumB / 100).
type rangeQuery struct {
	table      string
	preds      []rangePred
	sumA, sumB string
}

// monthStart returns the first day of the k-th month after 1992-01 as
// the date literal the SQL wants and as the day offset the columns hold.
func monthStart(k int) (string, int64) {
	epoch := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	t := time.Date(1992+k/12, time.Month(1+k%12), 1, 0, 0, 0, 0, time.UTC)
	return t.Format("2006-01-02"), int64(t.Sub(epoch).Hours() / 24)
}

// adhocTemplates draw one literal tuple each. rows gives table sizes,
// so key ranges scale with the database.
var adhocTemplates = []struct {
	name string
	draw func(rng *rand.Rand, rows func(string) int) (string, rangeQuery)
}{
	{"ord_range", func(rng *rand.Rand, _ func(string) int) (string, rangeQuery) {
		a := rng.Intn(68)
		lo, loDay := monthStart(a)
		hi, hiDay := monthStart(a + 1 + rng.Intn(12))
		return fmt.Sprintf("select sum(o_totalprice) from orders where o_orderdate >= date '%s' and o_orderdate < date '%s'", lo, hi),
			rangeQuery{table: "orders", preds: []rangePred{{"o_orderdate", loDay, hiDay}}, sumA: "o_totalprice"}
	}},
	{"cust_range", func(rng *rand.Rand, rows func(string) int) (string, rangeQuery) {
		lo, hi := keyRange(rng, rows("customer"))
		return fmt.Sprintf("select count(*) from customer where c_custkey >= %d and c_custkey < %d", lo, hi),
			rangeQuery{table: "customer", preds: []rangePred{{"c_custkey", lo, hi}}}
	}},
	{"part_range", func(rng *rand.Rand, rows func(string) int) (string, rangeQuery) {
		lo, hi := keyRange(rng, rows("part"))
		return fmt.Sprintf("select sum(p_retailprice) from part where p_partkey >= %d and p_partkey < %d", lo, hi),
			rangeQuery{table: "part", preds: []rangePred{{"p_partkey", lo, hi}}, sumA: "p_retailprice"}
	}},
	{"li_q6", func(rng *rand.Rand, _ func(string) int) (string, rangeQuery) {
		a := rng.Intn(68)
		lo, loDay := monthStart(a)
		hi, hiDay := monthStart(a + 3 + rng.Intn(10))
		disc := int64(rng.Intn(9))
		qty := int64(10 + rng.Intn(41))
		return fmt.Sprintf("select sum(l_extendedprice * l_discount / 100) from lineitem "+
				"where l_shipdate >= date '%s' and l_shipdate < date '%s' and l_discount between %d and %d and l_quantity < %d",
				lo, hi, disc, disc+2, qty),
			rangeQuery{table: "lineitem", preds: []rangePred{{"l_shipdate", loDay, hiDay}, {"l_discount", disc, disc + 3}, {"l_quantity", 0, qty}},
				sumA: "l_extendedprice", sumB: "l_discount"}
	}},
}

// keyRange draws a key interval covering between 1/64 and 1/4 of a
// table whose keys run 1..n.
func keyRange(rng *rand.Rand, n int) (lo, hi int64) {
	width := n/64 + rng.Intn(n/4-n/64+1)
	lo = int64(1 + rng.Intn(n))
	return lo, lo + int64(width)
}

// plan is a workload bound to a seed and its expected answers: every request it
// can send, prebuilt, so the load loop formats nothing.
type plan struct {
	w *workload
	// variants holds, per cycle position, the requests to pick from.
	variants [][]request
	cycle    []int // indices into variants, one cycle of the mix
	// setup are the session-local lines every connection sends first
	// (fast on, prepare ...); prime is every distinct request once.
	setup []string
	prime []request
	seed  int64
}

func buildPlan(w *workload, seed int64, o *dataOracle) (*plan, error) {
	p := &plan{w: w, seed: seed}
	if w.fast {
		p.setup = append(p.setup, "fast on")
	}
	if w.adhoc {
		// The pool depends on the seed alone, so every connection of a
		// run draws from the same ~2048 statements.
		rng := rand.New(rand.NewSource(seed))
		queries := make([]rangeQuery, 0, len(adhocTemplates)*adhocPoolSize)
		for ti, t := range adhocTemplates {
			vs := make([]request, adhocPoolSize)
			for i := range vs {
				text, q := t.draw(rng, o.rows)
				queries = append(queries, q)
				vs[i] = newRequest(verbQuery, statement{name: t.name, sql: text}, nil, answer{})
				vs[i].key = fmt.Sprintf("%s#%d", t.name, i)
			}
			p.variants = append(p.variants, vs)
			p.cycle = append(p.cycle, ti)
		}
		// The naive evaluation is the slow part of building this plan
		// (seconds at SF 0.25), so it runs on every CPU.
		errs := make([]error, runtime.NumCPU())
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(queries) && errs[g] == nil; i += len(errs) {
					r := &p.variants[i/adhocPoolSize][i%adhocPoolSize]
					r.want, errs[g] = o.evalRange(queries[i])
				}
			}(g)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		for _, vs := range p.variants {
			p.prime = append(p.prime, vs[0])
		}
		return p, nil
	}
	primed := map[string]bool{}
	for si, sl := range w.mix {
		s := findStatement(sl.stmt)
		tuples := s.args
		if tuples == nil {
			tuples = [][]int64{nil}
		} else {
			p.setup = append(p.setup, "prepare "+s.name+" "+s.sql)
		}
		var vs []request
		for _, args := range tuples {
			want, err := o.fixed(oracleKey(s.name, args))
			if err != nil {
				return nil, err
			}
			r := newRequest(sl.verb, s, args, want)
			vs = append(vs, r)
			if !primed[r.key] {
				primed[r.key] = true
				p.prime = append(p.prime, r)
			}
		}
		p.variants = append(p.variants, vs)
		for i := 0; i < sl.weight; i++ {
			p.cycle = append(p.cycle, si)
		}
	}
	return p, nil
}

// generator is one connection's request sequence: seeded shuffles of
// the cycle, so every seed sends the same mix in a different order,
// and a seeded pick among each position's variants.
type generator struct {
	p     *plan
	rng   *rand.Rand
	order []int
	pos   int
}

func (p *plan) generator(conn int) *generator {
	g := &generator{p: p, rng: rand.New(rand.NewSource(p.seed*7919 + int64(conn) + 1))}
	g.order = append(g.order, p.cycle...)
	g.pos = len(g.order)
	return g
}

func (g *generator) next() *request {
	if g.pos == len(g.order) {
		g.rng.Shuffle(len(g.order), func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
		g.pos = 0
	}
	vs := g.p.variants[g.order[g.pos]]
	g.pos++
	return &vs[g.rng.Intn(len(vs))]
}
