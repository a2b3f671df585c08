// Package olapmicro reproduces "Micro-architectural Analysis of OLAP:
// Limitations and Opportunities" (Sirin & Ailamaki, VLDB 2020) as a
// pure-Go simulation study — and grows it into a queryable OLAP
// system: ad-hoc SQL is parsed, planned, cost-routed onto the profiled
// engines and executed for real over the generated data, reporting the
// same micro-architectural profiles as the paper's workloads.
//
// The library contains, from the bottom up:
//
//   - internal/hw, internal/mem, internal/cpu: the simulated Broadwell
//     and Skylake servers — set-associative cache hierarchy, the four
//     Intel hardware prefetchers with MSR-style control, a branch
//     predictor, and the execution-port/frontend models;
//   - internal/tmam: VTune-style top-down cycle accounting (Retiring /
//     BranchMisp / Icache / Decoding / Dcache / Execution);
//   - internal/tpch: a deterministic TPC-H dbgen plus the catalog the
//     SQL front end binds against;
//   - internal/engine/...: the four profiled systems — DBMS R (row
//     store), DBMS C (column extension), Typer (compiled) and
//     Tectorwise (vectorized, with AVX-512 SIMD mode) — executing the
//     paper's workloads for real while reporting micro-architectural
//     events; Typer and Tectorwise additionally expose generalized
//     scan/filter/hash-join/aggregate operators (PreparePipeline and
//     its workers) that run ad-hoc plans;
//   - internal/engine/relop: the engine-neutral physical plan those
//     operators execute;
//   - internal/engine/parallel: the morsel-driven multi-core
//     coordinator — shared hash builds, worker goroutines running
//     strided shares of cache-friendly scan morsels, thread-local
//     aggregation merged at the end, profiled under the shared-socket
//     bandwidth ceiling;
//   - internal/sql: lexer, recursive-descent parser, binder/planner,
//     cost-based engine selection with predicted top-down breakdowns,
//     and the executor dispatch (cmd/olapsql is the interactive
//     shell);
//   - internal/server: the concurrent query service — every query's
//     workers are goroutines under one budget of scan slots, an LRU
//     plan cache deduplicates identical plans, admission control
//     bounds the load, and every answer stays bit-identical to a
//     dedicated serial run (cmd/olapserve is the line-protocol
//     server; Server/QueryAsync the facade);
//   - internal/harness: one runnable experiment per paper figure,
//     table and in-text claim, plus ext-* extensions — including
//     ext-sql-q1/ext-sql-q6, which profile SQL-planned queries against
//     their hardcoded twins.
//
// This file is the stable facade: enumerate and run experiments by id,
// run ad-hoc SQL with Query, or serve concurrent SQL with NewServer
// and QueryAsync.
package olapmicro

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"olapmicro/internal/harness"
	"olapmicro/internal/server"
	"olapmicro/internal/sql"
)

// ExperimentIDs lists every reproducible experiment in paper order —
// "table1", "fig1" .. "fig30", the "text-*" in-text claims — followed
// by this repository's "ext-*" extensions.
func ExperimentIDs() []string {
	exps := harness.AllExperiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Describe returns an experiment's one-line title.
func Describe(id string) (string, error) {
	e, ok := harness.Lookup(id)
	if !ok {
		return "", fmt.Errorf("olapmicro: unknown experiment %q", id)
	}
	return e.Title, nil
}

var (
	quickOnce sync.Once
	quickH    *harness.Harness
	fullOnce  sync.Once
	fullH     *harness.Harness
)

// sharedHarness returns the cached quick or full harness, generating
// the database on first use.
func sharedHarness(quick bool) *harness.Harness {
	if quick {
		quickOnce.Do(func() { quickH = harness.New(harness.QuickConfig()) })
		return quickH
	}
	fullOnce.Do(func() { fullH = harness.New(harness.DefaultConfig()) })
	return fullH
}

// Run executes one experiment and returns its rendered figure.
// quick selects the miniaturized configuration (1/8-scale caches,
// SF 0.25 — identical working-set-to-cache ratios at a fraction of the
// simulation cost); otherwise the full Table-1 machines at SF 2 run.
// Harnesses are cached across calls, so measurements are shared.
func Run(id string, quick bool) (string, error) {
	e, ok := harness.Lookup(id)
	if !ok {
		return "", fmt.Errorf("olapmicro: unknown experiment %q", id)
	}
	return e.Run(sharedHarness(quick)).String(), nil
}

// QueryOption tunes one Query call.
type QueryOption func(*queryConfig)

type queryConfig struct {
	quick   bool
	engine  string
	threads int
}

// QueryQuick runs the query on the miniaturized configuration (the
// same scaling Run's quick mode uses).
func QueryQuick() QueryOption { return func(c *queryConfig) { c.quick = true } }

// QueryEngine forces the execution engine: "typer", "tectorwise" or
// "auto" (the default cost-based choice).
func QueryEngine(name string) QueryOption { return func(c *queryConfig) { c.engine = name } }

// QueryParallel executes the statement with morsel-driven parallelism
// on threads worker goroutines sharing the socket's memory bandwidth
// (Section 10); values <= 1 keep the serial executor.
func QueryParallel(threads int) QueryOption { return func(c *queryConfig) { c.threads = threads } }

// QueryOutput is one answered (or explained) SQL statement.
type QueryOutput struct {
	// Engine is the engine the planner chose (or was forced to).
	Engine string
	// Explain is the plan plus the four-engine cost-model comparison;
	// for EXPLAIN ANALYZE it is the full report instead — the plan,
	// the predicted top-down profile beside the observed one, the
	// per-operator breakdown, and the host-wall span timings.
	Explain string
	// Executed is false for EXPLAIN statements (EXPLAIN ANALYZE
	// executes, so it is true there); the fields below are then zero.
	Executed bool
	// Sum, Rows and Check mirror engine.Result: the primary aggregate,
	// the result-row count, and the order-insensitive row checksum.
	Sum   int64
	Rows  int64
	Check uint64
	// TimeMs is the simulated response time; Breakdown the measured
	// two-level top-down cycle breakdown.
	TimeMs    float64
	Breakdown string
	// Threads is the executing worker count. Parallel runs (Threads >
	// 1) additionally report the aggregate DRAM bandwidth and the
	// speedup over the single-core-equivalent execution.
	Threads            int
	SocketBandwidthGBs float64
	SpeedupX           float64
	// CacheHit reports whether a Server answered from its plan cache;
	// always false for direct Query calls, which do not cache.
	CacheHit bool
	// QueuedMs and WallMs are a Server's host-clock admission wait and
	// submit-to-finish latency; zero for direct Query calls.
	QueuedMs, WallMs float64
}

// validate rejects option combinations the compiler would otherwise
// mask or silently reinterpret: a negative worker count, and a forced
// engine that cannot execute morsel-driven pipelines combined with
// QueryParallel — without the check the engine error alone would hide
// that the thread count was also being ignored.
func (c queryConfig) validate() error {
	if c.threads < 0 {
		return fmt.Errorf("olapmicro: QueryParallel(%d): worker count cannot be negative (0 or 1 run the serial executor)", c.threads)
	}
	switch strings.ToLower(c.engine) {
	case "", "auto", "typer", "tectorwise":
		return nil
	}
	if c.threads > 1 {
		return fmt.Errorf("olapmicro: QueryEngine(%q) with QueryParallel(%d): engine %q cannot execute morsel-driven parallel pipelines; use typer, tectorwise or auto",
			c.engine, c.threads, c.engine)
	}
	return nil // the compiler reports the unknown engine with its accepted values
}

// Query compiles and runs one ad-hoc SQL statement over the generated
// database: parse, bind against the TPC-H catalog, cost-based engine
// selection, then execution on the chosen engine's generalized
// operators with full micro-architectural profiling. A statement
// prefixed with EXPLAIN is planned but not executed; EXPLAIN ANALYZE
// executes it and reports the predicted top-down profile beside the
// observed per-operator breakdown in Explain.
func Query(text string, opts ...QueryOption) (*QueryOutput, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h := sharedHarness(cfg.quick)
	c, a, err := sql.Run(h.Data, h.Cfg.Machine, text, sql.Options{Engine: cfg.engine, Threads: cfg.threads})
	if err != nil {
		return nil, fmt.Errorf("olapmicro: %w", err)
	}
	out := &QueryOutput{Engine: c.Engine, Explain: c.Explain()}
	if a != nil {
		if a.Analysis != nil {
			out.Explain = c.RenderAnalysis(a.Analysis)
		}
		out.Executed = true
		out.Sum = a.Result.Sum
		out.Rows = a.Result.Rows
		out.Check = a.Result.Check
		out.TimeMs = a.Profile.Milliseconds()
		out.Breakdown = a.Profile.Breakdown.String()
		out.Threads = a.Threads
		if a.Parallel != nil {
			out.SocketBandwidthGBs = a.Parallel.SocketBandwidthGBs
			out.SpeedupX = a.Parallel.Speedup
		}
	}
	return out, nil
}

// ServerOption tunes NewServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	quick bool
	cfg   server.Config
}

// ServerQuick serves the miniaturized configuration (the same scaling
// Run's quick mode uses).
func ServerQuick() ServerOption { return func(c *serverConfig) { c.quick = true } }

// ServerWorkers sets the number of scan slots: how many engine morsels
// execute at once, over all queries.
func ServerWorkers(n int) ServerOption { return func(c *serverConfig) { c.cfg.Workers = n } }

// ServerQueryThreads sets one query's parallelism (at most
// ServerWorkers).
func ServerQueryThreads(n int) ServerOption {
	return func(c *serverConfig) { c.cfg.QueryThreads = n }
}

// ServerAdmission bounds the executing and waiting query counts; a
// submission finding both budgets full is rejected.
func ServerAdmission(inFlight, queued int) ServerOption {
	return func(c *serverConfig) { c.cfg.MaxInFlight, c.cfg.MaxQueue = inFlight, queued }
}

// ServerPlanCache sets the LRU plan-cache capacity in entries.
func ServerPlanCache(n int) ServerOption { return func(c *serverConfig) { c.cfg.PlanCache = n } }

// ServerEngine sets the default execution engine ("auto", "typer" or
// "tectorwise"); individual queries cannot override it through the
// facade, force an engine per server instead.
func ServerEngine(name string) ServerOption { return func(c *serverConfig) { c.cfg.Engine = name } }

// ServerStats snapshots a Server's counters.
type ServerStats struct {
	// Submission outcomes: accepted, finished, errored, canceled, and
	// refused-at-admission counts.
	Submitted, Completed, Failed, Canceled, Rejected uint64
	// FastCompleted counts profile-free fast-mode completions (a
	// subset of Completed).
	FastCompleted uint64
	// Instantaneous occupancy: executing and waiting queries.
	InFlight, Queued int
	// Plan-cache counters and occupancy. PlanDedups counts misses that
	// joined an in-flight compilation instead of compiling themselves.
	PlanHits, PlanMisses, PlanEvictions, PlanDedups uint64
	PlanEntries, PlanCapacity                       int
	// Pool shape: slot count, per-query parallelism, and the
	// instantaneous count of slots executing a morsel.
	Workers, QueryThreads, PoolBusy int
	// Resilience counters: panics converted to per-query errors,
	// queries stopped by their deadline, and circuit-breaker trips on
	// poison statement templates.
	PanicsRecovered, DeadlineExceeded, BreakerOpens uint64
}

// PlanHitRate is plan-cache hits / lookups (0 before the first).
func (s ServerStats) PlanHitRate() float64 {
	if s.PlanHits+s.PlanMisses == 0 {
		return 0
	}
	return float64(s.PlanHits) / float64(s.PlanHits+s.PlanMisses)
}

// Server is the concurrent query service: many in-flight SQL
// statements share one budget of scan slots, identical
// statements share one cached plan, and every answer stays
// bit-identical to a dedicated serial run. Close it when done.
type Server struct {
	inner *server.Server
}

// NewServer starts a query server over the shared harness database
// (generated on first use, like Run and Query).
func NewServer(opts ...ServerOption) (*Server, error) {
	var c serverConfig
	for _, o := range opts {
		o(&c)
	}
	h := sharedHarness(c.quick)
	c.cfg.Data, c.cfg.Machine = h.Data, h.Cfg.Machine
	inner, err := server.New(c.cfg)
	if err != nil {
		return nil, fmt.Errorf("olapmicro: %w", err)
	}
	return &Server{inner: inner}, nil
}

// PendingQuery is one asynchronous submission.
type PendingQuery struct {
	t *server.Ticket
}

// ID is the submission id (also the protocol id in cmd/olapserve).
func (p *PendingQuery) ID() uint64 { return p.t.ID }

// Cancel abandons the submission: a queued query never starts, a
// running one stops at its next morsel boundary.
func (p *PendingQuery) Cancel() { p.t.Cancel() }

// Wait blocks until the query finishes (or ctx expires) and returns
// its output.
func (p *PendingQuery) Wait(ctx context.Context) (*QueryOutput, error) {
	resp, err := p.t.Wait(ctx)
	if err != nil {
		return nil, fmt.Errorf("olapmicro: %w", err)
	}
	return outputFromResponse(resp), nil
}

// QueryAsync submits one statement for concurrent execution and
// returns immediately; an error reports admission refusal
// (overloaded or closed), not statement failure, which Wait carries.
func (s *Server) QueryAsync(ctx context.Context, text string) (*PendingQuery, error) {
	t, err := s.inner.QueryAsync(ctx, text)
	if err != nil {
		return nil, fmt.Errorf("olapmicro: %w", err)
	}
	return &PendingQuery{t: t}, nil
}

// Query is the synchronous form of QueryAsync.
func (s *Server) Query(ctx context.Context, text string) (*QueryOutput, error) {
	p, err := s.QueryAsync(ctx, text)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// Stats snapshots the service counters.
func (s *Server) Stats() ServerStats {
	return ServerStats(s.inner.Stats())
}

// Close stops admissions and drains pending queries.
func (s *Server) Close() { s.inner.Close() }

// outputFromResponse maps a service response onto the facade output.
func outputFromResponse(r *server.Response) *QueryOutput {
	out := &QueryOutput{
		Engine:   r.Engine,
		Explain:  r.Explain,
		CacheHit: r.CacheHit,
		QueuedMs: float64(r.Queued) / float64(time.Millisecond),
		WallMs:   float64(r.Wall) / float64(time.Millisecond),
	}
	if r.Executed {
		out.Executed = true
		out.Sum = r.Result.Sum
		out.Rows = r.Result.Rows
		out.Check = r.Result.Check
		out.TimeMs = r.Profile.Milliseconds()
		out.Breakdown = r.Profile.Breakdown.String()
		out.Threads = r.Threads
		if r.Parallel != nil {
			out.SocketBandwidthGBs = r.Parallel.SocketBandwidthGBs
			out.SpeedupX = r.Parallel.Speedup
		}
	}
	return out
}
