package sql

import (
	"fmt"
	"strings"
	"sync"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/parallel"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/engine/tectorwise"
	"olapmicro/internal/engine/typer"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/multicore"
	"olapmicro/internal/obs"
	"olapmicro/internal/probe"
	"olapmicro/internal/tmam"
	"olapmicro/internal/tpch"
)

// Options tunes compilation.
type Options struct {
	// Engine forces the execution engine: "typer" or "tectorwise";
	// "" or "auto" selects by predicted response time.
	Engine string
	// Threads > 1 executes the statement with morsel-driven
	// parallelism on that many workers (Section 10) and routes engine
	// selection through the modelled parallel times; 0 or 1 runs the
	// serial executor.
	Threads int
	// Trace, when non-nil, adopts the compile-phase span tree (parse,
	// bind+plan, predict, select) as a child — internal/server parents
	// it under each query's plan span.
	Trace *obs.Span
}

// Compiled is a parsed, planned and cost-analyzed statement, ready to
// execute (possibly several times, or on a forced engine).
//
// A statement with `?` placeholders compiles into an unbound template:
// Params > 0, Pipeline and Predictions are nil, and Bind must
// substitute arguments before anything executes. Binding replans the
// substituted statement from scratch — every value-dependent planning
// decision (selectivity sampling, group-count estimates, engine
// auto-selection) is made exactly as if the literal text had been
// compiled, so bound executions return bit-identical results and
// profiles to their literal forms.
type Compiled struct {
	Stmt        *Select
	Pipeline    *relop.Pipeline
	Predictions []Prediction
	Engine      string // chosen execution engine ("Typer"/"Tectorwise")
	Threads     int    // worker count Execute will use (>= 1)
	// Params counts the statement's `?` placeholders; > 0 marks an
	// unbound template.
	Params int
	// Spans is the compile-phase span tree ("compile" with parse,
	// bind+plan, predict and select children), recorded on every
	// compilation from the host monotonic clock.
	Spans *obs.Span

	data    *tpch.Data
	machine *hw.Machine
	// reqEngine is the requested engine option ("", "auto", "typer",
	// "tectorwise"), kept so Bind re-runs engine selection under the
	// same policy the template was compiled with.
	reqEngine string
	// fastOnce/fastPlan lazily compile and cache fast mode's one
	// executor, join build indexes included, so every execution of a
	// cached statement only probes; fastErr instead for the pipeline it
	// refuses (a table past 32-bit row ids).
	fastOnce sync.Once
	fastPlan *relop.FastPlan
	fastErr  error
}

// Answer is one executed query: the comparable result plus the
// measured micro-architectural profile.
type Answer struct {
	Engine    string
	Result    engine.Result
	Profile   tmam.Profile
	Predicted tmam.Profile
	// Inputs is the raw counter snapshot, in the same form the harness
	// records for hardcoded workloads. Parallel runs report the summed
	// worker counters (the single-core-equivalent snapshot).
	Inputs tmam.Inputs
	// Threads is the worker count that executed the statement.
	Threads int
	// Parallel summarizes the morsel-driven run — socket bandwidth,
	// speedup, per-worker profiles. It is nil on the serial path.
	Parallel *parallel.Result
	// Analysis carries the EXPLAIN ANALYZE attribution (analyze.go);
	// non-nil only when the statement was EXPLAIN ANALYZE.
	Analysis *Analysis
}

// chooseAuto picks the executable engine with the lowest predicted
// response time — the modelled parallel time when the statement will
// run multi-threaded. It errors when no prediction is executable
// rather than letting the caller index Predictions[-1].
func chooseAuto(preds []Prediction) (string, error) {
	best := -1
	for i, p := range preds {
		if !p.Executable {
			continue
		}
		if best < 0 || p.predictedSeconds() < preds[best].predictedSeconds() {
			best = i
		}
	}
	if best < 0 {
		var names []string
		for _, p := range preds {
			names = append(names, p.System)
		}
		return "", fmt.Errorf("sql: no engine can execute this pipeline (predicted %s are estimate-only); force typer or tectorwise",
			strings.Join(names, ", "))
	}
	return preds[best].System, nil
}

// predictedSeconds is the time auto-selection ranks by.
func (p Prediction) predictedSeconds() float64 {
	if p.Parallel != nil {
		return p.Parallel.PerThread.Seconds
	}
	return p.Profile.Seconds
}

// Compile parses text, plans it against the database, predicts all
// four profiled engines with the calibrated cost models, and picks the
// execution engine. Text with `?` placeholders compiles into an
// unbound template (see Compiled); Bind substitutes arguments and
// replans.
func Compile(d *tpch.Data, m *hw.Machine, text string, opt Options) (*Compiled, error) {
	root := obs.NewSpan("compile")
	sp := root.Child("parse")
	stmt, err := Parse(text)
	sp.End()
	if err != nil {
		return nil, err
	}
	if stmt.Params > 0 {
		return compileTemplate(d, m, stmt, opt, root)
	}
	return finishCompile(d, m, stmt, opt, root)
}

// compileTemplate validates an unbound parameterized statement: the
// engine name must resolve and the statement must plan with
// placeholder values, so PREPARE reports static errors (unknown
// columns, unsupported shapes) immediately rather than at the first
// EXECUTE. The probe plan is discarded — Bind replans per argument
// set, because planning samples data against the bound literals.
func compileTemplate(d *tpch.Data, m *hw.Machine, stmt *Select, opt Options, root *obs.Span) (*Compiled, error) {
	if stmt.Explain {
		return nil, fmt.Errorf("sql: EXPLAIN of a parameterized statement is not supported; explain the bound literal form")
	}
	switch strings.ToLower(opt.Engine) {
	case "", "auto", "typer", "tectorwise":
	default:
		return nil, fmt.Errorf("unknown engine %q (want typer, tectorwise or auto)", opt.Engine)
	}
	probeArgs := make([]int64, stmt.Params)
	for i := range probeArgs {
		probeArgs[i] = 1
	}
	sp := root.Child("validate")
	_, err := BuildPipeline(d, substituteParams(stmt, probeArgs))
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("validating parameterized statement (with placeholder value 1): %w", err)
	}
	root.End()
	if opt.Trace != nil {
		opt.Trace.Adopt(root)
	}
	return &Compiled{
		Stmt:      stmt,
		Threads:   parallel.ClampThreads(m, opt.Threads),
		Params:    stmt.Params,
		Spans:     root,
		data:      d,
		machine:   m,
		reqEngine: opt.Engine,
	}, nil
}

// finishCompile plans a fully-substituted statement: bind+plan,
// predict, engine selection. Compile (literal text) and Bind
// (substituted template) both land here, which is what makes a bound
// execution indistinguishable from a literal one.
func finishCompile(d *tpch.Data, m *hw.Machine, stmt *Select, opt Options, root *obs.Span) (*Compiled, error) {
	sp := root.Child("bind+plan")
	pl, err := BuildPipeline(d, stmt)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Clamp like the executor does, so predictions, auto-selection and
	// Explain describe the thread count that will actually run.
	threads := parallel.ClampThreads(m, opt.Threads)
	c := &Compiled{
		Stmt:      stmt,
		Pipeline:  pl,
		Threads:   threads,
		Spans:     root,
		data:      d,
		machine:   m,
		reqEngine: opt.Engine,
	}
	sp = root.Child("predict")
	c.Predictions = Predict(pl, m)
	if threads > 1 {
		for i := range c.Predictions {
			r := multicore.Run(c.Predictions[i].Inputs, threads, multicore.Options{})
			c.Predictions[i].Parallel = &r
		}
	}
	sp.End()
	sp = root.Child("select")
	switch strings.ToLower(opt.Engine) {
	case "", "auto":
		sys, err := chooseAuto(c.Predictions)
		if err != nil {
			sp.End()
			return nil, err
		}
		c.Engine = sys
	case "typer":
		c.Engine = "Typer"
	case "tectorwise":
		c.Engine = "Tectorwise"
	default:
		sp.End()
		return nil, fmt.Errorf("unknown engine %q (want typer, tectorwise or auto)", opt.Engine)
	}
	sp.Annotate("engine=%s", c.Engine)
	sp.End()
	root.End()
	if opt.Trace != nil {
		opt.Trace.Adopt(root)
	}
	return c, nil
}

// Bind substitutes args (one int64 per `?`, in source order; dates
// bind as TPC-H epoch-day offsets) into a parameterized template and
// replans, returning a fully-executable Compiled. Binding a statement
// without parameters returns it unchanged. The template itself is
// never mutated — any number of binds may share it concurrently.
func (c *Compiled) Bind(args []int64) (*Compiled, error) {
	return c.BindTraced(args, nil)
}

// BindTraced is Bind with the bind-phase span tree (substitute,
// bind+plan, predict, select) adopted under trace, mirroring
// Options.Trace on Compile.
func (c *Compiled) BindTraced(args []int64, trace *obs.Span) (*Compiled, error) {
	if len(args) != c.Params {
		return nil, fmt.Errorf("sql: statement wants %d argument(s), got %d", c.Params, len(args))
	}
	if c.Params == 0 {
		return c, nil
	}
	root := obs.NewSpan("bind")
	sp := root.Child("substitute")
	stmt := substituteParams(c.Stmt, args)
	sp.End()
	return finishCompile(c.data, c.machine, stmt, Options{Engine: c.reqEngine, Threads: c.Threads, Trace: trace}, root)
}

// errUnbound reports an attempt to use a template where an executable
// statement is required.
func (c *Compiled) errUnbound() error {
	if c.Pipeline == nil {
		return fmt.Errorf("sql: statement has %d unbound parameter(s); Bind arguments first", c.Params)
	}
	return nil
}

// substituteParams deep-copies a statement with every Param replaced
// by its argument as a NumLit — after which the statement plans like
// any literal text. Leaves without parameters are shared; the parsed
// template is never mutated.
func substituteParams(s *Select, args []int64) *Select {
	out := *s
	out.Params = 0
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = SelectItem{X: substExpr(it.X, args), Alias: it.Alias}
	}
	if s.Where != nil {
		out.Where = substPred(s.Where, args)
	}
	if len(s.GroupBy) > 0 {
		out.GroupBy = make([]Expr, len(s.GroupBy))
		for i, g := range s.GroupBy {
			out.GroupBy[i] = substExpr(g, args)
		}
	}
	if s.Having != nil {
		out.Having = substPred(s.Having, args)
	}
	if len(s.OrderBy) > 0 {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = OrderItem{X: substExpr(o.X, args), Desc: o.Desc}
		}
	}
	return &out
}

func substExpr(x Expr, args []int64) Expr {
	switch e := x.(type) {
	case *Param:
		return &NumLit{P: e.P, V: args[e.Idx]}
	case *BinExpr:
		return &BinExpr{P: e.P, Op: e.Op, L: substExpr(e.L, args), R: substExpr(e.R, args)}
	case *AggCall:
		if e.Arg == nil {
			return e
		}
		return &AggCall{P: e.P, Fn: e.Fn, Star: e.Star, Arg: substExpr(e.Arg, args)}
	default:
		// ColRef, NumLit and DateLit are immutable leaves.
		return x
	}
}

func substPred(pr Pred, args []int64) Pred {
	switch p := pr.(type) {
	case *AndPred:
		return &AndPred{P: p.P, L: substPred(p.L, args), R: substPred(p.R, args)}
	case *CmpPred:
		return &CmpPred{P: p.P, Op: p.Op, L: substExpr(p.L, args), R: substExpr(p.R, args)}
	case *BetweenPred:
		return &BetweenPred{P: p.P, X: substExpr(p.X, args), Lo: substExpr(p.Lo, args), Hi: substExpr(p.Hi, args)}
	default:
		return pr
	}
}

// prediction returns the prediction for a system name.
func (c *Compiled) prediction(system string) tmam.Profile {
	for _, p := range c.Predictions {
		if p.System == system {
			if p.Parallel != nil {
				return p.Parallel.PerThread
			}
			return p.Profile
		}
	}
	return tmam.Profile{}
}

// Prepare instantiates the chosen engine against as and runs the
// pipeline's build phase on p, returning the read-only plan fragment
// any number of workers may probe concurrently — the build step of
// every measured run, serial or parallel, whoever scans.
func (c *Compiled) Prepare(p *probe.Probe, as *probe.AddrSpace) (relop.Prepared, error) {
	if err := c.errUnbound(); err != nil {
		return nil, err
	}
	switch c.Engine {
	case "Typer":
		return typer.New(c.data, as).PreparePipeline(p, as, c.Pipeline)
	case "Tectorwise":
		return tectorwise.New(c.data, as, c.machine.L1D.SizeBytes, c.machine.SIMDLanes64).PreparePipeline(p, as, c.Pipeline)
	}
	return nil, fmt.Errorf("engine %q cannot execute SQL pipelines; force typer or tectorwise", c.Engine)
}

// Fast returns the statement's cached fast-mode executor — fast mode's
// only one, joins included — compiling it on first use. Compiling
// filters and indexes every join's build side, and the plan is
// immutable and safe for concurrent Execute calls: the server shares it
// across sessions through the plan cache, so repeated EXECUTEs of one
// prepared statement skip planning, engine construction and join builds
// entirely and only probe. It errors for an unbound template and for a
// table past 32-bit row ids.
func (c *Compiled) Fast() (*relop.FastPlan, error) {
	if err := c.errUnbound(); err != nil {
		return nil, err
	}
	c.fastOnce.Do(func() {
		c.fastPlan, c.fastErr = relop.CompileFast(c.Pipeline, relop.BindData(c.Pipeline, c.data))
	})
	return c.fastPlan, c.fastErr
}

// FastPlan is Fast without the reason: nil where Fast errors.
func (c *Compiled) FastPlan() *relop.FastPlan {
	fp, _ := c.Fast()
	return fp
}

// ExecuteFast runs the pipeline in profile-free fast mode on its
// FastPlan: no cache-hierarchy simulation, no branch predictor, no
// section accounting — only the answer, bit-identical to a measured
// run at any thread count; there is no profile to report. threads <= 1
// runs one worker.
func (c *Compiled) ExecuteFast(threads int) (engine.Result, error) {
	fp, err := c.Fast()
	if err != nil {
		return engine.Result{}, err
	}
	r, _ := fp.Execute(parallel.ClampThreads(c.machine, threads))
	return r, nil
}

// runMorsels is the statement's measured morsel-driven run on its own
// goroutine fleet: a probe per worker, the profile accounted.
func (c *Compiled) runMorsels(threads int) (*parallel.Result, error) {
	return parallel.Run(parallel.Scan{
		Machine:  c.machine,
		Pipeline: c.Pipeline,
		Prepare:  c.Prepare,
		Threads:  threads,
		Name:     "parallel.worker",
	}, parallel.Dedicated)
}

// serialRun is the statement's serial measured run on one fresh
// probe: Prepare, one worker over the whole driver, then the finalize,
// timed as a host-clock span tree (build, scan+probe, finalize).
// sections turns on the probe's named-section attribution for EXPLAIN
// ANALYZE; sections only attribute counters, they never change them.
func (c *Compiled) serialRun(sections bool) (*probe.Probe, engine.Result, *obs.Span, error) {
	as := probe.NewAddrSpace()
	p := probe.New(c.machine, mem.AllPrefetchers())
	if sections {
		p.EnableSections()
	}
	root := obs.NewSpan("analyze")
	sp := root.Child("build")
	prep, err := c.Prepare(p, as)
	if err != nil {
		return nil, engine.Result{}, nil, err
	}
	sp.End()
	sp = root.Child("scan+probe")
	w := prep.NewWorker(p, as)
	w.RunMorsel(0, prep.Rows())
	sp.End()
	sp = root.Child("finalize")
	res := relop.FinalizeProbed(p, c.Pipeline, []*relop.Partial{w.Partial()})
	sp.End()
	root.End()
	return p, res, root, nil
}

// Execute runs the pipeline on the chosen engine at the compilation's
// thread count, measuring the run like the harness measures the
// hardcoded workloads.
func (c *Compiled) Execute() (*Answer, error) {
	return c.ExecuteThreads(c.Threads)
}

// ExecuteThreads runs the pipeline with the given worker count
// (independent of the compilation's Threads, so callers can sweep):
// 1 runs the serial executor, more the morsel-driven parallel one.
func (c *Compiled) ExecuteThreads(threads int) (*Answer, error) {
	if err := c.errUnbound(); err != nil {
		return nil, err
	}
	if threads > 1 {
		return c.executeParallel(threads)
	}
	p, res, _, err := c.serialRun(false)
	if err != nil {
		return nil, err
	}
	return &Answer{
		Engine:    c.Engine,
		Result:    res,
		Profile:   tmam.Account(p, tmam.Params{}),
		Predicted: c.prediction(c.Engine),
		Inputs:    tmam.InputsFrom(p),
		Threads:   1,
	}, nil
}

// executeParallel runs the morsel-driven executor and reports the
// slowest worker's shared-ceiling profile as the statement's profile.
func (c *Compiled) executeParallel(threads int) (*Answer, error) {
	r, err := c.runMorsels(threads)
	if err != nil {
		return nil, err
	}
	return &Answer{
		Engine:    c.Engine,
		Result:    r.Result,
		Profile:   r.Profile(),
		Predicted: c.prediction(c.Engine),
		Inputs:    r.Inputs,
		Threads:   r.Threads,
		Parallel:  r,
	}, nil
}

// Explain renders the chosen plan and the per-engine cost-model
// comparison: predicted micro-ops, response time, and the predicted
// top-down cycle breakdown (the same two levels every figure reports).
// Multi-threaded compilations append the modelled parallel execution —
// per-thread time, socket bandwidth and speedup at the configured
// worker count.
func (c *Compiled) Explain() string {
	if c.Pipeline == nil {
		return fmt.Sprintf("unbound template (%d parameters); bind arguments to plan\n", c.Params)
	}
	var b strings.Builder
	b.WriteString("plan:\n")
	for _, line := range strings.Split(strings.TrimRight(c.Pipeline.String(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	fmt.Fprintf(&b, "engines (cost-model prediction):\n")
	fmt.Fprintf(&b, "  %-12s %10s %12s %8s | %5s %6s %6s %6s %6s\n",
		"system", "uops", "time(ms)", "retire%", "exec", "dcache", "decode", "icache", "brmisp")
	for _, pr := range c.Predictions {
		bd := pr.Profile.Breakdown
		ex, dc, de, ic, br := bd.StallShares()
		mark := ""
		if pr.System == c.Engine {
			mark = "  <- chosen"
		} else if !pr.Executable {
			mark = "  (estimate only)"
		}
		fmt.Fprintf(&b, "  %-12s %10d %12.2f %8.1f | %5.0f %6.0f %6.0f %6.0f %6.0f%s\n",
			pr.System, pr.Profile.Instructions, pr.Profile.Milliseconds(),
			100*bd.RetiringRatio(), 100*ex, 100*dc, 100*de, 100*ic, 100*br, mark)
	}
	if c.Threads > 1 {
		fmt.Fprintf(&b, "parallel (modelled, %d threads):\n", c.Threads)
		fmt.Fprintf(&b, "  %-12s %12s %12s %8s\n", "system", "time(ms)", "socket GB/s", "speedup")
		for _, pr := range c.Predictions {
			if pr.Parallel == nil {
				continue
			}
			mark := ""
			if pr.System == c.Engine {
				mark = "  <- chosen"
			}
			fmt.Fprintf(&b, "  %-12s %12.2f %12.1f %7.1fx%s\n",
				pr.System, pr.Parallel.PerThread.Milliseconds(),
				pr.Parallel.SocketBandwidthGBs, pr.Parallel.Speedup, mark)
		}
	}
	return b.String()
}

// Run is the one-call form: compile, then execute unless the
// statement was plain EXPLAIN. The Answer is nil for EXPLAIN
// statements; EXPLAIN ANALYZE executes the serial instrumented run
// and returns its Answer with Answer.Analysis set.
func Run(d *tpch.Data, m *hw.Machine, text string, opt Options) (*Compiled, *Answer, error) {
	c, err := Compile(d, m, text, opt)
	if err != nil {
		return nil, nil, err
	}
	if c.Stmt.Analyze {
		an, err := c.Analyze()
		if err != nil {
			return c, nil, err
		}
		return c, an.Answer, nil
	}
	if c.Stmt.Explain {
		return c, nil, nil
	}
	a, err := c.Execute()
	if err != nil {
		return c, nil, err
	}
	return c, a, nil
}
