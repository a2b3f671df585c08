// Package server is the concurrent query service above internal/sql:
// many in-flight SQL statements compile through the planner (an LRU
// plan cache deduplicates identical plans), then each runs its workers
// as goroutines — internal/engine/parallel's strided fleet — under two
// budgets: admission control bounds both the executing and the waiting
// query count, and a Workers-sized slot semaphore bounds how many
// morsels execute at once; the Go scheduler does the interleaving.
// Every query is cancelable through its context, and because each
// query's morsels are partitioned exactly as a dedicated parallel run
// would partition them, every result — and every per-query
// micro-architectural profile — is bit-identical to the serial engines
// no matter how many queries share the machine.
// cmd/olapserve exposes the service over a line protocol; the
// olapmicro facade exposes it as Server/QueryAsync.
package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/parallel"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/faults"
	"olapmicro/internal/hw"
	"olapmicro/internal/obs"
	"olapmicro/internal/sql"
	"olapmicro/internal/tmam"
	"olapmicro/internal/tpch"
)

// Sentinel errors of the admission path.
var (
	// ErrOverloaded rejects a submission when both the in-flight
	// budget and the waiting queue are full.
	ErrOverloaded = errors.New("server: overloaded: in-flight and queued budgets are full")
	// ErrClosed rejects submissions to a closed server.
	ErrClosed = errors.New("server: closed")
)

// Config tunes a Server. The zero value of any field selects its
// default.
type Config struct {
	// Data and Machine are the database and the simulated server every
	// query runs against; both are required.
	Data    *tpch.Data
	Machine *hw.Machine
	// Workers is the number of scan slots: at most this many engine
	// morsels execute at once, over all queries (default 4), clamped to
	// the machine's hyper-threaded single-socket capacity like any
	// parallel run.
	Workers int
	// QueryThreads is one query's parallelism: its morsels are strided
	// over this many worker goroutines (default Workers, clamped to
	// Workers). A submission may override it per query.
	QueryThreads int
	// MaxInFlight bounds the queries admitted to execution at once
	// (default 2 x Workers).
	MaxInFlight int
	// MaxQueue bounds the queries waiting for admission; a submission
	// finding both budgets full is rejected with ErrOverloaded
	// (default 4 x MaxInFlight).
	MaxQueue int
	// PlanCache is the LRU plan-cache capacity in entries (default 64).
	PlanCache int
	// Engine is the default execution engine: "auto" (the default),
	// "typer" or "tectorwise". A submission may override it per query.
	Engine string
	// DefaultTimeout bounds every submission's whole lifecycle (queue
	// wait included); a query past its deadline stops at the next
	// morsel boundary and reports context.DeadlineExceeded. Zero means
	// no server-side deadline. A submission may override it per query
	// (WithTimeout, the protocol's timeout verb).
	DefaultTimeout time.Duration
	// Faults optionally arms deterministic fault injection at the
	// serving path's named injection points (see internal/faults). Nil
	// — the production configuration — costs each site one pointer
	// comparison.
	Faults *faults.Injector
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() (Config, error) {
	if c.Data == nil || c.Machine == nil {
		return c, errors.New("server: Config.Data and Config.Machine are required")
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	c.Workers = parallel.ClampThreads(c.Machine, c.Workers)
	if c.QueryThreads <= 0 || c.QueryThreads > c.Workers {
		c.QueryThreads = c.Workers
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * c.Workers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.PlanCache <= 0 {
		c.PlanCache = 64
	}
	if c.Engine == "" {
		c.Engine = "auto"
	}
	return c, nil
}

// Response is one finished statement.
type Response struct {
	// ID is the submission id Cancel and the protocol address.
	ID uint64
	// Engine is the engine the planner chose (or was forced to).
	Engine string
	// Explain is the rendered report of EXPLAIN (the plan, not
	// executed) or EXPLAIN ANALYZE (the predicted-vs-observed
	// analysis; the statement did execute).
	Explain string
	// Executed is false for plain EXPLAIN statements.
	Executed bool
	// Result is the comparable answer, bit-identical to a serial run.
	Result engine.Result
	// Profile is the slowest worker's profile under the shared-socket
	// bandwidth ceiling, its Seconds widened to the whole simulated
	// span (serial build + parallel scan + serial finalize) — the same
	// convention the dedicated parallel executor reports.
	Profile tmam.Profile
	// Parallel is the full morsel-driven accounting (nil for EXPLAIN).
	Parallel *parallel.Result
	// Threads and Morsels describe the scan-phase shape.
	Threads, Morsels int
	// CacheHit reports whether the plan came from the plan cache. A
	// submission that joined another's in-flight compilation reports
	// false: no cached entry served it.
	CacheHit bool
	// Fast reports profile-free fast execution: Result is bit-identical
	// to a measured run's, but Profile is zero and Parallel nil — no
	// simulated cores ran.
	Fast bool
	// Queued is the host-clock admission wait; Wall the host-clock
	// submit-to-finish latency.
	Queued, Wall time.Duration
	// Trace is the query's host-clock span tree: queue-wait, plan
	// (with the compile spans on a cache miss), build, execute (one
	// aggregated child per scan worker) and finalize under one root.
	Trace *obs.Span
}

// Ticket is one in-flight submission: wait on Done (or Wait), cancel
// with Cancel.
type Ticket struct {
	// ID addresses the submission in Cancel calls and stats.
	ID uint64

	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	resp     *Response
	err      error
	finished atomic.Bool // finish ran; guards the last-resort recovery path

	// sc is the submission's resolved configuration and response the
	// storage resp points at: both ride in the ticket's allocation.
	// admitted reports whether admission granted an in-flight slot at
	// once (false: parked in the wait queue) at the submitted instant.
	sc        submitConfig
	response  Response
	admitted  bool
	submitted time.Time
}

// Done closes when the submission has finished (or failed).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the submission finishes or ctx expires.
func (t *Ticket) Wait(ctx context.Context) (*Response, error) {
	select {
	case <-t.done:
		return t.resp, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Cancel asks the scheduler to abandon the submission: a queued query
// never starts, a running one stops at its next morsel boundary. The
// ticket then reports context.Canceled.
func (t *Ticket) Cancel() { t.cancel() }

// SubmitOption tunes one submission.
type SubmitOption func(*submitConfig)

type submitConfig struct {
	engine     string
	threads    int
	args       []int64
	hasArgs    bool
	id         *sql.Identity // resolved at prepare time; nil resolves in plan
	fast       bool
	timeout    time.Duration
	hasTimeout bool
	// owner is the session that submitted, nil from the Go API: a
	// session's cancel verb reaches only its own submissions.
	owner *Session
}

// WithEngine forces this submission's engine ("typer", "tectorwise"
// or "auto"), overriding the server default.
func WithEngine(name string) SubmitOption {
	return func(c *submitConfig) { c.engine = name }
}

// WithThreads overrides the server's per-query parallelism for this
// submission (clamped to [1, Workers]).
func WithThreads(n int) SubmitOption {
	return func(c *submitConfig) { c.threads = n }
}

// WithArgs executes the statement as a prepared template: the text's
// `?` placeholders are bound to args (dates as days since the TPC-H
// epoch, 1992-01-01), in source order. The plan cache keys the template
// plus its arguments, so a repetition — or the literal statement the
// pair spells — reuses the plan. The argument count must match the
// placeholder count exactly.
func WithArgs(args []int64) SubmitOption {
	return func(c *submitConfig) { c.args = args; c.hasArgs = true }
}

// withPrepared is WithArgs for a statement a session resolved at
// prepare time: the submission skips the lexer altogether.
func withPrepared(id *sql.Identity, args []int64) SubmitOption {
	return func(c *submitConfig) { c.id, c.args, c.hasArgs = id, args, true }
}

// WithFast runs this submission in profile-free fast mode: the real
// computation, morsel partition and merge are exactly the measured
// path's — the Result is bit-identical — but no probes attach, so no
// micro-architectural events are simulated and the Response carries no
// Profile. EXPLAIN and EXPLAIN ANALYZE statements ignore the flag:
// they exist to show plans and profiles.
func WithFast() SubmitOption {
	return func(c *submitConfig) { c.fast = true }
}

// WithTimeout bounds this submission's whole lifecycle (queue wait
// included): past the deadline it stops at the next morsel boundary
// and reports context.DeadlineExceeded. It overrides the server's
// DefaultTimeout; d <= 0 removes the server deadline for this
// submission (the caller's own context still applies).
func WithTimeout(d time.Duration) SubmitOption {
	return func(c *submitConfig) { c.timeout = d; c.hasTimeout = true }
}

// Stats is a snapshot of the service counters, taken under one lock
// acquisition: the outcome counters and the occupancy always satisfy
// Submitted == Completed + Failed + Canceled + InFlight + Queued in
// any snapshot, even while queries complete concurrently. (The
// plan-cache counters come from the cache's own single lock
// acquisition and are mutually consistent, but may run slightly ahead
// of the outcome counters.)
type Stats struct {
	// Submission outcomes. Submitted counts accepted submissions;
	// Rejected the ErrOverloaded refusals (not included in Submitted).
	Submitted, Completed, Failed, Canceled, Rejected uint64
	// FastCompleted counts the completions that ran in profile-free
	// fast mode (a subset of Completed).
	FastCompleted uint64
	// Instantaneous occupancy.
	InFlight, Queued int
	// Plan-cache counters. PlanDedups counts misses that joined another
	// submission's in-flight compilation instead of compiling the same
	// key themselves (a subset of PlanMisses).
	PlanHits, PlanMisses, PlanEvictions, PlanDedups uint64
	PlanEntries, PlanCapacity                       int
	// Scan-slot shape. PoolBusy is the instantaneous count of slots
	// held by a worker executing a morsel — zero on a drained server.
	Workers, QueryThreads, PoolBusy int
	// Resilience counters: panics converted to per-query errors,
	// queries stopped by their deadline (a subset of Canceled), and
	// circuit-breaker trips on poison templates.
	PanicsRecovered, DeadlineExceeded, BreakerOpens uint64
}

// PlanHitRate is hits / lookups (0 before the first lookup).
func (s Stats) PlanHitRate() float64 {
	total := s.PlanHits + s.PlanMisses
	if total == 0 {
		return 0
	}
	return float64(s.PlanHits) / float64(total)
}

// Server is the concurrent query service.
type Server struct {
	cfg   Config
	plans *planCache
	brk   *breaker

	sem   chan struct{} // in-flight budget
	queue chan struct{} // waiting budget
	// slots is the scan budget: a worker holds one token per morsel it
	// executes, so at most Workers morsels run at once whatever the
	// number of admitted queries and their thread counts.
	slots chan struct{}

	mu      sync.Mutex
	closed  bool
	pending map[uint64]*Ticket
	wg      sync.WaitGroup
	// st holds the outcome counters and occupancy, guarded by mu and
	// updated in the same critical section as the state transition
	// they describe — a Stats snapshot is therefore exactly
	// consistent, not a torn read of independent atomics.
	st struct {
		submitted, completed, failed, canceled, rejected uint64
		fast                                             uint64
		inflight, queued                                 int
	}

	nextID atomic.Uint64
	tel    *Telemetry
}

// New returns a server ready to admit queries. It starts nothing
// long-lived: every goroutine belongs to one submission.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		plans:   newPlanCache(cfg.PlanCache),
		brk:     newBreaker(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		queue:   make(chan struct{}, cfg.MaxQueue),
		slots:   make(chan struct{}, cfg.Workers),
		pending: make(map[uint64]*Ticket),
	}
	s.tel = newTelemetry(s)
	return s, nil
}

// Config returns the resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// QueryAsync submits one statement and returns immediately with its
// ticket. The statement is admitted now (or parked in the bounded
// wait queue); ErrOverloaded reports both budgets full, ErrClosed a
// closed server.
func (s *Server) QueryAsync(ctx context.Context, text string, opts ...SubmitOption) (*Ticket, error) {
	t := &Ticket{}
	for _, o := range opts {
		o(&t.sc)
	}
	if err := s.admit(ctx, t); err != nil {
		return nil, err
	}
	go s.run(t, text)
	return t, nil
}

// admit resolves t's configuration against the server defaults, then
// admits the submission or parks it in the wait queue; an error means
// t was refused. The caller runs the admitted ticket's lifecycle, s.run,
// exactly once: on a goroutine of its own, or on one it already has.
func (s *Server) admit(ctx context.Context, t *Ticket) error {
	sc := &t.sc
	if sc.engine == "" {
		sc.engine = s.cfg.Engine
	}
	if sc.threads <= 0 {
		sc.threads = s.cfg.QueryThreads
	}
	if sc.threads > s.cfg.Workers {
		sc.threads = s.cfg.Workers
	}
	timeout := s.cfg.DefaultTimeout
	if sc.hasTimeout {
		timeout = sc.timeout
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Admission under the lock, so Close never races a late add.
	admitted := false
	select {
	case s.sem <- struct{}{}:
		admitted = true
	default:
		select {
		case s.queue <- struct{}{}:
		default:
			s.st.rejected++
			queued, inflight := s.st.queued, s.st.inflight
			s.mu.Unlock()
			// Overload responses carry client guidance: the computed
			// backoff spreads thundering-herd retries instead of having
			// every rejected client hammer the queue again at once.
			s.tel.RetryHints.Inc()
			return &OverloadError{
				Queued:     queued,
				InFlight:   inflight,
				RetryAfter: s.retryAfter(queued),
			}
		}
	}
	t.ID, t.done, t.admitted = s.nextID.Add(1), make(chan struct{}), admitted
	if timeout > 0 {
		t.ctx, t.cancel = context.WithTimeout(ctx, timeout)
	} else {
		t.ctx, t.cancel = context.WithCancel(ctx)
	}
	s.pending[t.ID] = t
	s.wg.Add(1)
	s.st.submitted++
	if admitted {
		s.st.inflight++
	} else {
		s.st.queued++
	}
	s.mu.Unlock()
	t.submitted = time.Now() //olap:allow wallclock queue-latency telemetry timestamp
	return nil
}

// Submit is the synchronous form of QueryAsync.
func (s *Server) Submit(ctx context.Context, text string, opts ...SubmitOption) (*Response, error) {
	t, err := s.QueryAsync(ctx, text, opts...)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// cancel cancels pending submission id if owner submitted it (nil:
// the Go API did). Another owner's id reads as not pending: ids are
// sequential, so anything else would let any client cancel its
// neighbours' work.
func (s *Server) cancel(id uint64, owner *Session) error {
	s.mu.Lock()
	t, ok := s.pending[id]
	s.mu.Unlock()
	if !ok || t.sc.owner != owner {
		return fmt.Errorf("server: no pending query with id %d", id)
	}
	t.Cancel()
	return nil
}

// Stats snapshots the service counters atomically (one acquisition
// of the server lock covers every outcome counter and the occupancy).
func (s *Server) Stats() Stats {
	hits, misses, evictions, dedups := s.plans.counters()
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	return Stats{
		Submitted:        st.submitted,
		Completed:        st.completed,
		Failed:           st.failed,
		Canceled:         st.canceled,
		Rejected:         st.rejected,
		FastCompleted:    st.fast,
		InFlight:         st.inflight,
		Queued:           st.queued,
		PlanHits:         hits,
		PlanMisses:       misses,
		PlanEvictions:    evictions,
		PlanDedups:       dedups,
		PlanEntries:      s.plans.len(),
		PlanCapacity:     s.cfg.PlanCache,
		Workers:          s.cfg.Workers,
		QueryThreads:     s.cfg.QueryThreads,
		PoolBusy:         len(s.slots),
		PanicsRecovered:  s.tel.Panics.Value(),
		DeadlineExceeded: s.tel.Deadlines.Value(),
		BreakerOpens:     s.brk.openCount(),
	}
}

// Close stops admissions and waits for every pending query — EXPLAIN
// ANALYZE's serial run included. It is idempotent and safe to call
// concurrently: every call returns only after the last pending query
// has retired, and no goroutine of the server outlives it.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

// Shutdown is the bounded-drain Close: it stops admitting
// immediately, gives in-flight and queued queries until ctx expires
// to finish, then cancels the stragglers (each stops at its next
// morsel boundary) and still waits for them to retire.
// It returns ctx.Err() if the drain had to cancel anything, nil if
// everything finished on its own. Like Close it is idempotent and
// concurrency-safe.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		defer func() { _ = recover() }() // WaitGroup misuse must not kill the drain
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for _, t := range s.pending { //olap:allow detrange canceling every pending ticket; order never reaches a result
			t.cancel()
		}
		s.mu.Unlock()
		<-drained
	}
	return err
}

// finish records a submission's outcome and releases its ticket. The
// outcome counter and the occupancy decrement (inflight reports which
// budget the submission last occupied) land in one critical section,
// so no Stats snapshot ever sees the query in both states or neither.
// The finished flag makes the last-resort recovery in run safe: a
// ticket finishes exactly once.
func (s *Server) finish(t *Ticket, resp *Response, err error, inflight bool) {
	if !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.resp, t.err = resp, err
	if errors.Is(err, context.DeadlineExceeded) {
		s.tel.Deadlines.Inc()
	}
	s.mu.Lock()
	switch {
	case err == nil:
		s.st.completed++
		if resp != nil && resp.Fast {
			s.st.fast++
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.st.canceled++
	default:
		s.st.failed++
	}
	if inflight {
		s.st.inflight--
	} else {
		s.st.queued--
	}
	delete(s.pending, t.ID)
	s.mu.Unlock()
	t.cancel() // release the context's resources
	close(t.done)
	s.wg.Done()
}

// run is one submission's lifecycle: wait for admission if queued,
// execute, record the outcome. Its last-resort recover converts a
// panic anywhere in the lifecycle bookkeeping into a per-query
// failure that still releases the submission's budget slot — the
// process and the other in-flight queries survive any query-scoped
// fault. (Panics inside the query's own work are converted closer to
// home, by safeExecute and runMorsel's per-morsel recovery.)
func (s *Server) run(t *Ticket, text string) {
	admitted, submitted := t.admitted, t.submitted
	holding := admitted // whether we hold an in-flight slot right now
	defer func() {
		if r := recover(); r != nil {
			s.tel.Panics.Inc()
			if holding {
				<-s.sem
			}
			s.finish(t, nil, newPanicError("query-lifecycle", r), holding)
		}
	}()
	root := obs.NewSpan("query")
	root.Annotate("id=%d", t.ID)
	qspan := root.Child("queue-wait")
	if !admitted {
		// The queue token is released only after the in-flight slot is
		// taken, so a query counts against exactly one budget — except
		// for the instant of the handoff, where it briefly counts
		// against both and a racing submission may see the server
		// fuller than it is. Admission errs on the side of shedding:
		// the waiting bound is never exceeded.
		select {
		case s.sem <- struct{}{}:
			holding = true
			s.mu.Lock()
			s.st.queued--
			s.st.inflight++
			s.mu.Unlock()
			<-s.queue
		case <-t.ctx.Done():
			<-s.queue
			s.finish(t, nil, t.ctx.Err(), false)
			return
		}
	}
	qspan.End()
	queued := time.Since(submitted) //olap:allow wallclock queue-latency telemetry
	s.tel.QueueMs.Observe(float64(queued) / float64(time.Millisecond))
	if t.ctx.Err() != nil {
		<-s.sem
		holding = false
		s.finish(t, nil, t.ctx.Err(), true)
		return
	}
	resp, err := s.safeExecute(t, text, root)
	root.End()
	wall := time.Since(submitted) //olap:allow wallclock wall-time telemetry
	if resp != nil {
		resp.Queued = queued
		resp.Wall = wall
		resp.Trace = root
	}
	if err == nil {
		s.tel.WallMs.Observe(float64(wall) / float64(time.Millisecond))
		if resp != nil && resp.Fast {
			s.tel.FastWallMs.Observe(float64(wall) / float64(time.Millisecond))
		}
	}
	// Release the in-flight slot before finish closes the ticket, so
	// a waiter that just observed completion never reads a stale
	// Stats().InFlight.
	<-s.sem
	holding = false
	s.finish(t, resp, err, true)
}

// safeExecute isolates panics in one query's compile and execution:
// a panic in the planner, the fast-path executor's kernels (their
// worker goroutines repropagate onto this frame), the build phase or
// the finalize merge becomes that query's error, with the stack
// captured in the PanicError. runMorsel's own recovery covers the scan
// phase, whose panics surface as runScan errors, not panics, and so
// arrive here as plain errors.
func (s *Server) safeExecute(t *Ticket, text string, root *obs.Span) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.tel.Panics.Inc()
			resp, err = nil, newPanicError("execute", r)
		}
	}()
	return s.execute(t, text, root)
}

// planKey is a submission's plan-cache identity, built in one buffer:
// the statement's template key plus everything else that changes the
// compiled artifact — the forced engine ("auto" when unset), the worker
// count the plan's predictions and auto-selection were made for, and
// the template's arguments. Spellings of one statement (whitespace,
// case, comments; literal or placeholder-plus-arguments form) share a
// key; a different literal, argument, engine or thread count does not.
func planKey(template, engine string, threads int, args []int64) string {
	engine = strings.ToLower(engine) // no copy when already lower-case
	if engine == "" {
		engine = "auto"
	}
	b := make([]byte, 0, 256) // on the stack unless the key is longer
	b = append(append(b, template...), 0)
	b = append(append(b, engine...), 0)
	b = strconv.AppendInt(b, int64(threads), 10)
	for _, a := range args {
		b = strconv.AppendInt(append(b, 0), a, 10)
	}
	return string(b)
}

// plan resolves one submission's compiled, executable plan: one lexer
// pass, one key, one plan-cache lookup. The identity auto-parameterizes
// plain literal texts, so the literal, WithArgs and prepared forms of
// one statement share a cache entry and a breaker key; what compiles on
// a miss is the text the caller sent, so error positions cite it.
// Compilation is single-flighted per key; failures (text the lexer
// rejects, arity errors) are never stored. cached reports whether the
// plan came from the cache — Response.CacheHit and the hit counters.
func (s *Server) plan(text string, sc submitConfig, span *obs.Span) (c *sql.Compiled, cached bool, err error) {
	var id sql.Identity
	if sc.id != nil {
		id = *sc.id
	} else {
		id = sql.Identify(text, !sc.hasArgs)
	}
	args := sc.args
	if !sc.hasArgs {
		args = id.Args
	}
	// Poison templates trip a per-template circuit breaker: after
	// breakerThreshold consecutive compile failures the next
	// breakerCooldown submissions of the template are rejected before
	// any compile work (or admission of downstream phases) happens.
	// The breaker keys the normalized template, so literal variants of
	// one poison statement share a trip.
	if err := s.brk.admit(id.Key); err != nil {
		return nil, false, err
	}
	if s.cfg.Faults != nil && s.cfg.Faults.Fire(faults.EvictionStorm, text) {
		s.plans.purge()
	}
	return s.plans.getOrCompile(planKey(id.Key, sc.engine, sc.threads, args), func() (*sql.Compiled, error) {
		if f := s.cfg.Faults; f != nil {
			if f.Fire(faults.CompilePanic, text) {
				panic(&faults.ErrInjected{Point: faults.CompilePanic, Key: text})
			}
			if f.Fire(faults.CompileError, text) {
				return nil, &faults.ErrInjected{Point: faults.CompileError, Key: text}
			}
		}
		t0 := time.Now() //olap:allow wallclock compile-time telemetry
		c, err := sql.Compile(s.cfg.Data, s.cfg.Machine, text,
			sql.Options{Engine: sc.engine, Threads: sc.threads, Trace: span})
		s.brk.onCompile(id.Key, err)
		if err == nil {
			// Binds an explicit template's arguments (an arity error is not
			// the breaker's business); without placeholders, the identity.
			c, err = c.BindTraced(sc.args, span)
		}
		if err == nil {
			s.tel.CompileMs.Observe(float64(time.Since(t0)) / float64(time.Millisecond)) //olap:allow wallclock compile-time telemetry
		}
		return c, err
	})
}

// execute compiles (through the plan cache) and runs one statement,
// hanging its phase spans under root.
func (s *Server) execute(t *Ticket, text string, root *obs.Span) (*Response, error) {
	sc := &t.sc
	plan := root.Child("plan")
	c, hit, err := s.plan(text, *sc, plan)
	if err != nil {
		plan.End()
		return nil, err
	}
	plan.Annotate("cache=%v", hit)
	plan.End()
	resp := &t.response
	*resp = Response{ID: t.ID, Engine: c.Engine, CacheHit: hit}
	if c.Stmt.Analyze {
		// EXPLAIN ANALYZE runs the dedicated serial instrumented pass
		// outside the scan slots: its observed profile is the single-core
		// reference, bit-identical whatever thread count or concurrency
		// the server is configured with.
		sp := root.Child("analyze")
		an, err := c.Analyze()
		sp.End()
		if err != nil {
			return nil, err
		}
		resp.Explain = c.RenderAnalysis(an)
		resp.Executed = true
		resp.Result = an.Answer.Result
		resp.Profile = an.Answer.Profile
		resp.Threads = 1
		return resp, nil
	}
	if c.Stmt.Explain {
		resp.Explain = c.Explain()
		return resp, nil
	}

	if sc.fast {
		// Fast mode has one executor: the statement's FastPlan, cached on
		// the Compiled, which the plan cache shares across sessions —
		// repeated EXECUTEs of one template skip planning, engine
		// construction and join builds and run the compiled kernels
		// directly. Fast plans take no scan slot (measured: rotating them
		// through a shared scheduler cost fast_frame 6% qps and fast_scan
		// 23%, see README "Serving concurrent queries"); the admission
		// ticket already bounds how many execute at once. Having no
		// morsel boundaries, they are cancelled only before they start.
		fp, err := c.Fast()
		if err != nil {
			return nil, err
		}
		if err := t.ctx.Err(); err != nil {
			return nil, err
		}
		if s.cfg.Faults != nil && s.cfg.Faults.Fire(faults.WorkerPanic, text) {
			panic(&faults.ErrInjected{Point: faults.WorkerPanic, Key: text})
		}
		exec := root.Child("execute")
		merged, used := fp.Execute(sc.threads)
		exec.End()
		s.tel.ExecMs.Observe(float64(exec.Duration()) / float64(time.Millisecond))
		resp.Executed = true
		resp.Fast = true
		resp.Result = merged
		resp.Threads = used
		return resp, nil
	}

	// Measured engine scan: the morsel partition and worker shape of a
	// dedicated run at this thread count — the invariant behind every
	// "bit-identical under concurrency" guarantee — scanned under the
	// shared slot budget.
	r, err := parallel.Run(parallel.Scan{
		Machine:  s.cfg.Machine,
		Pipeline: c.Pipeline,
		Prepare:  c.Prepare,
		Threads:  sc.threads,
		Name:     fmt.Sprintf("server.q%d.w", t.ID),
		Trace:    root,
	}, func(workers []relop.Worker, morsels []parallel.Morsel) error {
		return s.runScan(t, text, root, workers, morsels)
	})
	if err != nil {
		return nil, err
	}
	resp.Executed = true
	resp.Result = r.Result
	resp.Threads = r.Threads
	resp.Morsels = r.Morsels
	resp.Parallel = r
	resp.Profile = r.Profile()
	return resp, nil
}

// runScan is the scan step the server hands parallel.Run: the query's
// workers are goroutines of the one strided fleet, and a worker holds a
// scan slot for exactly one morsel at a time — all queries together
// execute at most Workers morsels at once, and a long scan cannot keep
// the budget from its neighbours. Every morsel boundary checks the
// query's context and abort flag: cancellation, a deadline or a sibling
// worker's panic stops the scan there. A panic recovered on one of the
// query's morsels surfaces as the query's error; other queries and
// their spans are untouched.
func (s *Server) runScan(t *Ticket, text string, root *obs.Span, workers []relop.Worker, morsels []parallel.Morsel) error {
	threads := len(workers)
	exec := root.Child("execute")
	if len(morsels) > 0 {
		// Each worker's entries have a single writer; the fleet's join
		// orders them before the reads below.
		busyNs := make([]int64, threads)
		ran := make([]int, threads)
		var panicked atomic.Pointer[PanicError] // first panic wins; non-nil aborts the siblings
		parallel.Strided(threads, morsels, func(w int, m parallel.Morsel) bool {
			select {
			case s.slots <- struct{}{}:
			case <-t.ctx.Done():
				return false
			}
			defer func() { <-s.slots }()
			if t.ctx.Err() != nil || panicked.Load() != nil {
				return false
			}
			t0 := time.Now() //olap:allow wallclock real busy-time telemetry, not simulated cost
			perr := s.runMorsel(workers[w], m, text)
			busyNs[w] += int64(time.Since(t0)) //olap:allow wallclock real busy-time telemetry, not simulated cost
			ran[w]++
			if perr != nil {
				panicked.CompareAndSwap(nil, perr)
			}
			return perr == nil
		})
		// One aggregated span per worker: the sum of its morsel
		// runtimes (not a contiguous interval).
		for wi := 0; wi < threads; wi++ {
			ws := exec.Child(fmt.Sprintf("worker[%d]", wi))
			ws.SetDuration(time.Duration(busyNs[wi]))
			ws.Annotate("morsels=%d", ran[wi])
		}
		if perr := panicked.Load(); perr != nil {
			exec.End()
			s.tel.Panics.Inc()
			return perr
		}
	}
	exec.End()
	s.tel.ExecMs.Observe(float64(exec.Duration()) / float64(time.Millisecond))
	return t.ctx.Err()
}

// injectedSlowMorselDelay is the stall the slow-morsel fault injects —
// long enough to reorder the scan's interleaving around it, short
// enough that a chaos sweep stays fast.
const injectedSlowMorselDelay = 2 * time.Millisecond

// runMorsel executes one morsel with panic isolation: a panic in the
// engine kernel (or injected by the worker-panic fault) is recovered
// on the worker's own stack and returned as the query's PanicError.
// The fault hooks sit here, between slot and execution: both fire at
// most once per query, and with a nil injector the hot path pays one
// pointer comparison.
func (s *Server) runMorsel(w relop.Worker, m parallel.Morsel, faultKey string) (perr *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			perr = newPanicError("scan-worker", r)
		}
	}()
	if f := s.cfg.Faults; f != nil {
		if f.Fire(faults.SlowMorsel, faultKey) {
			time.Sleep(injectedSlowMorselDelay)
		}
		if f.Fire(faults.WorkerPanic, faultKey) {
			panic(&faults.ErrInjected{Point: faults.WorkerPanic, Key: faultKey})
		}
	}
	w.RunMorsel(m.Start, m.End)
	return nil
}
