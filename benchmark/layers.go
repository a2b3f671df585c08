package main

// layers.go is the only file of the benchmark that imports the
// product's packages. Everything the traced run, the oracle and the
// golden-file writer need from below the line protocol goes through
// the small wrappers here, and only through the entry points ISSUE 11
// names — so a product change that reshapes anything else (PlanKey,
// Compiled.Prepare, parallel.NewFastWorkers, ...) cannot break the
// benchmark, and one that reshapes these is fixed in one place.

import (
	"context"
	"fmt"
	"io"

	"olapmicro/internal/engine"
	"olapmicro/internal/harness"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/obs"
	"olapmicro/internal/probe"
	"olapmicro/internal/server"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

// database is the generated TPC-H data plus the simulated machine, the
// pair every in-process entry point wants.
type database struct {
	data    *tpch.Data
	machine *hw.Machine
}

// openDatabase generates what olapserve serves: quick mirrors
// `olapserve -quick` (SF 0.25, 1/8 caches) and ignores sf; otherwise
// the default machine at scale factor sf, which is what OLAPSIM_SF
// selects.
func openDatabase(quick bool, sf float64) *database {
	if quick {
		cfg := harness.QuickConfig()
		return &database{data: tpch.Generate(cfg.SF), machine: cfg.Machine}
	}
	return &database{data: tpch.Generate(sf), machine: harness.DefaultConfig().Machine}
}

func (db *database) rows(table string) int {
	t, ok := tpch.SchemaTable(table)
	if !ok {
		panic("benchmark: no table " + table)
	}
	return t.Rows(db.data)
}

func (db *database) column(name string) ([]int64, error) {
	_, c, ok := tpch.SchemaColumn(name)
	if !ok || c.I64 == nil {
		return nil, fmt.Errorf("no int64 column %q", name)
	}
	return c.I64(db.data), nil
}

func toAnswer(r engine.Result) answer {
	return answer{Sum: r.Sum, Rows: r.Rows, Check: checksum(r.Check)}
}

// inproc is an in-process server.Server configured like the spawned
// olapserve: workers pool slots, every other setting default.
type inproc struct{ srv *server.Server }

func (db *database) newServer(workers int) (*inproc, error) {
	srv, err := server.New(server.Config{Data: db.data, Machine: db.machine, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &inproc{srv}, nil
}

func (s *inproc) serve(r io.Reader, w io.Writer) error { return s.srv.ServeSession(r, w) }
func (s *inproc) writeMetrics(w io.Writer) error       { return s.srv.WriteMetrics(w) }
func (s *inproc) touchStats()                          { _ = s.srv.Stats() }
func (s *inproc) close()                               { s.srv.Close() }

// submit is Server.Submit with the options the session layer would
// have attached; cached is the response's plan-cache bit.
func (s *inproc) submit(r *request, fast bool) (ans answer, cached bool, err error) {
	var opts []server.SubmitOption
	if fast {
		opts = append(opts, server.WithFast())
	}
	if r.hasArgs {
		opts = append(opts, server.WithArgs(r.args))
	}
	resp, err := s.srv.Submit(context.Background(), r.sql, opts...)
	if err != nil {
		return answer{}, false, err
	}
	return toAnswer(resp.Result), resp.CacheHit, nil
}

// frontend is the text work Server.plan does before the plan cache is
// consulted: auto-parameterize literal text, then normalize the
// template. It returns the template and its arguments.
func frontend(r *request) (string, []int64) {
	template, args := r.sql, r.args
	if !r.hasArgs {
		if t, a, ok := sql.Parameterize(r.sql); ok {
			template, args = t, a
		}
	}
	_ = sql.NormalizeSQL(template)
	return template, args
}

func parseSQL(text string) error {
	_, err := sql.Parse(text)
	return err
}

// compiled wraps sql.Compiled: an unbound template when params > 0.
type compiled struct{ c *sql.Compiled }

// compile is sql.Compile; engine is "auto", "typer" or "tectorwise".
func (db *database) compile(text, engine string, threads int) (*compiled, error) {
	c, err := sql.Compile(db.data, db.machine, text, sql.Options{Engine: engine, Threads: threads})
	if err != nil {
		return nil, err
	}
	return &compiled{c}, nil
}

func (c *compiled) params() int { return c.c.Params }

func (c *compiled) bind(args []int64) (*compiled, error) {
	b, err := c.c.Bind(args)
	if err != nil {
		return nil, err
	}
	return &compiled{b}, nil
}

// hasFastPlan reports whether the vectorized fast plan covers this
// statement; the first call compiles it (relop.CompileFast).
func (c *compiled) hasFastPlan() bool { return c.c.FastPlan() != nil }

// runFastPlan is Compiled.FastPlan().Execute — the relop fast kernels.
func (c *compiled) runFastPlan(threads int) answer {
	r, _ := c.c.FastPlan().Execute(threads)
	return toAnswer(r)
}

// runFast is Compiled.ExecuteFast: the fast plan where one exists, the
// engines with a nil probe otherwise.
func (c *compiled) runFast(threads int) (answer, error) {
	r, err := c.c.ExecuteFast(threads)
	return toAnswer(r), err
}

// measuredRun is one measured-mode execution: the answer, the
// simulated time, and how many cache-line accesses were simulated.
type measuredRun struct {
	ans       answer
	simMs     float64
	memEvents uint64
}

// runMeasured is Compiled.ExecuteThreads: engine + probe + simulator.
func (c *compiled) runMeasured(threads int) (measuredRun, error) {
	a, err := c.c.ExecuteThreads(threads)
	if err != nil {
		return measuredRun{}, err
	}
	return measuredRun{ans: toAnswer(a.Result), simMs: a.Profile.Milliseconds(), memEvents: a.Inputs.MemStats.Accesses()}, nil
}

// microOp is one call into probe, mem or obs, timed in a tight loop by
// the traced run: calls per timed batch, and div turns nanoseconds per
// call into the metric's unit (the cache lines one sequential call
// streams, 1000 for a metric in µs).
type microOp struct {
	metric string
	calls  int
	div    float64
	op     func(i int)
}

const (
	microSeqBytes  = 1 << 20   // one sequential call streams 16384 lines
	microRandBytes = 256 << 20 // random loads land in a region far larger than the simulated L3
)

// scatter maps i to a pseudo-random 8-byte-aligned offset below
// microRandBytes.
func scatter(i int) uint64 {
	return (uint64(i) * 0x9e3779b97f4a7c15 >> 20) % microRandBytes &^ 7
}

func (db *database) microOps() []microOp {
	as := probe.NewAddrSpace()
	seq := as.Alloc("bench.seq", 16*microSeqBytes)
	rnd := as.Alloc("bench.rand", microRandBytes)
	p := probe.New(db.machine, mem.AllPrefetchers())
	h := mem.NewHierarchy(db.machine, mem.AllPrefetchers())
	hist := obs.NewHistogram(nil)
	lines := float64(microSeqBytes / 64)
	const events = 50_000 // single events per batch
	return []microOp{
		{"probe.new_us", 20, 1e3, func(int) { _ = probe.New(db.machine, mem.AllPrefetchers()) }},
		{"probe.seqload_ns_per_line", 16, lines, func(i int) { p.SeqLoad(seq.AddrAt(uint64(i%16)*microSeqBytes), microSeqBytes, 8) }},
		{"probe.load_rand_ns", events, 1, func(i int) { p.Load(rnd.AddrAt(scatter(i)), 8) }},
		{"probe.branch_ns", events, 1, func(i int) { p.BranchOp(uint64(i&15), scatter(i)&8 != 0) }},
		{"probe.alu_ns", events, 1, func(int) { p.ALU(1) }},
		{"mem.load_seq_ns_per_line", 16, lines, func(i int) { h.Load(seq.AddrAt(uint64(i%16)*microSeqBytes), microSeqBytes) }},
		{"mem.load_rand_ns", events, 1, func(i int) { h.Load(rnd.AddrAt(scatter(i)), 8) }},
		{"obs.span_tree_us", 5000, 1e3, func(i int) {
			// The tree Server.run builds for one fast query: a root, an
			// annotation, and the queue-wait, plan and execute children.
			root := obs.NewSpan("query")
			root.Annotate("id=%d", i)
			for _, name := range [...]string{"queue-wait", "plan", "execute"} {
				root.Child(name).End()
			}
			root.End()
		}},
		{"obs.hist_observe_ns", events, 1, func(i int) { hist.Observe(float64(i&1023) / 64) }},
	}
}
