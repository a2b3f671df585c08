package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"olapmicro/internal/faults"
	"olapmicro/internal/sql"
)

// A panic injected into the query's scan phase becomes that query's
// error — stack captured, counter bumped — while the scan slots, the
// stats invariant and every later query are untouched.
func TestPanicIsolationPoolWorker(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.WorkerPanic, 1, 0) // every key, once each
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2, Faults: inj})
	q := testQueries[0]

	_, err := s.Submit(context.Background(), q)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("faulted query: want *PanicError, got %v", err)
	}
	if perr.Op != "scan-worker" {
		t.Errorf("panic op = %q, want scan-worker", perr.Op)
	}
	if len(perr.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	var inj2 *faults.ErrInjected
	if !errors.As(err, &inj2) || inj2.Point != faults.WorkerPanic {
		t.Errorf("panic value must unwrap to the injected fault, got %v", err)
	}
	if strings.ContainsAny(perr.Error(), "\r\n") {
		t.Errorf("PanicError.Error must be one line, got %q", perr.Error())
	}

	// The fault fired once; the same statement now runs to completion
	// with the bit-identical serial answer on the same server.
	d, m := testDB()
	_, serial, err := sql.Run(d, m, q, sql.Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatalf("server must survive a worker panic: %v", err)
	}
	if !resp.Result.Equal(serial.Result) {
		t.Errorf("post-panic result differs from serial: %+v vs %+v", resp.Result, serial.Result)
	}

	st := s.Stats()
	if st.PanicsRecovered == 0 {
		t.Error("PanicsRecovered = 0 after an injected worker panic")
	}
	if st.Failed != 1 || st.Completed != 1 {
		t.Errorf("outcomes failed=%d completed=%d, want 1 and 1", st.Failed, st.Completed)
	}
	checkStatsInvariant(t, st)
}

// The same fault on the profile-free fast path is recovered the same
// way: fast plans scan their morsels through the measured path's
// runMorsel barrier, so the panic is a scan worker's.
func TestPanicIsolationFastPath(t *testing.T) {
	inj := faults.New(2)
	inj.Enable(faults.WorkerPanic, 1, 0)
	s := newTestServer(t, Config{Workers: 2, Faults: inj})
	q := testQueries[0]

	_, err := s.Submit(context.Background(), q, WithFast())
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("faulted fast query: want *PanicError, got %v", err)
	}
	if perr.Op != "scan-worker" {
		t.Errorf("panic op = %q, want scan-worker", perr.Op)
	}
	if resp, err := s.Submit(context.Background(), q, WithFast()); err != nil || resp.Result.Rows == 0 {
		t.Fatalf("fast path must survive a panic: %v %v", resp, err)
	}
	checkStatsInvariant(t, s.Stats())
}

// A panic inside the one compile closure: the owner's frame converts it
// into that submission's PanicError and counts it, nothing is cached,
// and the next submission of the template — any spelling, any form —
// compiles normally. (Waiters on the panicking flight get
// PanicError{Op: "plan-compile"}: TestPlanCacheCompilePanic.)
func TestCompilePanicFault(t *testing.T) {
	inj := faults.New(3)
	inj.Enable(faults.CompilePanic, 1, 0) // every text, once each
	s := newTestServer(t, Config{Workers: 2, Faults: inj})
	const q = "select count(*) from orders where o_totalprice < 5"

	_, err := s.Submit(context.Background(), q)
	var perr *PanicError
	var injected *faults.ErrInjected
	if !errors.As(err, &perr) || !errors.As(err, &injected) || injected.Point != faults.CompilePanic {
		t.Fatalf("faulted compile: want a *PanicError wrapping the injected compile panic, got %v", err)
	}
	if perr.Op != "execute" {
		t.Errorf("owner's panic op = %q, want execute (the submission frame's barrier)", perr.Op)
	}
	if st := s.Stats(); st.PanicsRecovered != 1 || st.Failed != 1 || st.PlanEntries != 0 {
		t.Errorf("after the panic: panics=%d failed=%d plan-entries=%d, want 1, 1 and 0",
			st.PanicsRecovered, st.Failed, st.PlanEntries)
	}
	for i, wantHit := range []bool{false, true} {
		resp, err := s.Submit(context.Background(), q)
		if err != nil || resp.CacheHit != wantHit {
			t.Fatalf("submission %d after the panic: resp %+v err %v, want cached=%v", i+1, resp, err, wantHit)
		}
	}
	checkStatsInvariant(t, s.Stats())
}

// Deadlines: WithTimeout bounds the whole lifecycle, the expiry is
// counted both as a cancellation and in the deadline counter, and
// WithTimeout(0) removes a server-wide default.
func TestQueryDeadlines(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, DefaultTimeout: time.Nanosecond})
	q := testQueries[0]

	if _, err := s.Submit(context.Background(), q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("default timeout: want DeadlineExceeded, got %v", err)
	}
	if resp, err := s.Submit(context.Background(), q, WithTimeout(0)); err != nil || resp.Result.Rows == 0 {
		t.Fatalf("WithTimeout(0) must lift the server default: %v %v", resp, err)
	}
	if resp, err := s.Submit(context.Background(), q, WithTimeout(time.Minute)); err != nil || resp.Result.Rows == 0 {
		t.Fatalf("generous per-query deadline: %v %v", resp, err)
	}
	if _, err := s.Submit(context.Background(), q, WithTimeout(time.Nanosecond)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("per-query timeout: want DeadlineExceeded, got %v", err)
	}

	st := s.Stats()
	if st.DeadlineExceeded != 2 {
		t.Errorf("DeadlineExceeded = %d, want 2", st.DeadlineExceeded)
	}
	if st.Canceled != 2 || st.Completed != 2 {
		t.Errorf("outcomes canceled=%d completed=%d, want 2 and 2", st.Canceled, st.Completed)
	}
	checkStatsInvariant(t, st)
}

// A fast plan's deadline is checked at every morsel boundary, like a
// measured scan's: a morsel stalled past the submission's timeout
// fails it with context.DeadlineExceeded and counts it, and the same
// statement unfaulted returns the bit-identical answer.
func TestFastDeadlineAtMorselBoundary(t *testing.T) {
	inj := faults.New(4)
	inj.Enable(faults.SlowMorsel, 1, 0) // every text, once each
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2, Faults: inj})
	ctx := context.Background()
	q := testQueries[0]
	// Another spelling of q compiles the shared plan and takes that
	// spelling's stall, so the timed submission below is a cache hit
	// whose first morsel stalls.
	primed, err := s.Submit(ctx, strings.ToUpper(q), WithFast())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(ctx, q, WithFast(), WithTimeout(injectedSlowMorselDelay/4)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fast scan past its deadline: want DeadlineExceeded, got %v", err)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 || st.Canceled != 1 {
		t.Errorf("deadlines=%d canceled=%d, want 1 and 1", st.DeadlineExceeded, st.Canceled)
	}

	d, m := testDB()
	_, serial, err := sql.Run(d, m, q, sql.Options{Engine: "typer"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(ctx, q, WithFast())
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Equal(serial.Result) || !primed.Result.Equal(serial.Result) {
		t.Errorf("fast results %v (unfaulted) and %v (stalled) differ from serial %v", resp.Result, primed.Result, serial.Result)
	}
	checkStatsInvariant(t, s.Stats())
}

// Overload rejections carry a computed retry-after hint and still
// satisfy errors.Is(err, ErrOverloaded) for existing callers.
func TestOverloadRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 1, MaxQueue: 1})
	s.sem <- struct{}{}
	s.queue <- struct{}{}
	_, err := s.QueryAsync(context.Background(), "select count(*) from nation")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var oerr *OverloadError
	if !errors.As(err, &oerr) {
		t.Fatalf("want *OverloadError, got %T", err)
	}
	if oerr.RetryAfter < retryAfterMin || oerr.RetryAfter > retryAfterMax {
		t.Errorf("RetryAfter = %v outside [%v, %v]", oerr.RetryAfter, retryAfterMin, retryAfterMax)
	}
	if !strings.Contains(oerr.Error(), "retry-after=") {
		t.Errorf("overload error must print the hint, got %q", oerr.Error())
	}
	if got := s.Telemetry().RetryHints.Value(); got != 1 {
		t.Errorf("olap_retry_after_hints_total = %d, want 1", got)
	}
	<-s.sem
	<-s.queue
}

// retryAfter scales with the backlog and the observed p95 latency,
// clamped to actionable bounds.
func TestRetryAfterComputation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 4})
	if got := s.retryAfter(0); got != retryAfterDefault {
		t.Errorf("no latency data: retryAfter(0) = %v, want the %v default", got, retryAfterDefault)
	}
	for i := 0; i < 100; i++ {
		s.tel.WallMs.Observe(20) // p95 ≈ 20ms
	}
	shallow, deep := s.retryAfter(0), s.retryAfter(40)
	if shallow >= deep {
		t.Errorf("hint must grow with queue depth: %v !< %v", shallow, deep)
	}
	if got := s.retryAfter(1 << 30); got != retryAfterMax {
		t.Errorf("absurd backlog must clamp to %v, got %v", retryAfterMax, got)
	}
}

// Repeated compile failures on one template trip its circuit breaker:
// later submissions are rejected without compiling until the cooldown
// elapses, then a half-open probe retries for real.
func TestCompileCircuitBreaker(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	poison := "select no_such_column from lineitem"
	for i := 0; i < breakerThreshold; i++ {
		if _, err := s.Submit(context.Background(), poison); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("failure %d must be a genuine compile error, got %v", i, err)
		}
	}
	for i := 0; i < breakerCooldown; i++ {
		err := func() error { _, err := s.Submit(context.Background(), poison); return err }()
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open-breaker submission %d: want ErrBreakerOpen, got %v", i, err)
		}
	}
	// Cooldown spent: the next submission is the half-open probe — a
	// real compile attempt, which fails again and re-trips.
	if _, err := s.Submit(context.Background(), poison); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("half-open probe must recompile, got %v", err)
	}
	st := s.Stats()
	if st.BreakerOpens == 0 {
		t.Error("BreakerOpens = 0 after a tripped template")
	}
	// Healthy templates are unaffected throughout.
	if resp, err := s.Submit(context.Background(), testQueries[0]); err != nil || resp.Result.Rows == 0 {
		t.Fatalf("healthy template while another is tripped: %v %v", resp, err)
	}
	checkStatsInvariant(t, st)
}

// A compile success closes the template's breaker state: failures must
// be consecutive to trip.
func TestBreakerResetsOnSuccess(t *testing.T) {
	b := newBreaker()
	tmpl := "select ? from t"
	for round := 0; round < 4; round++ {
		for i := 0; i < breakerThreshold-1; i++ {
			if b.onCompile(tmpl, errors.New("boom")) {
				t.Fatalf("round %d: tripped below threshold", round)
			}
		}
		b.onCompile(tmpl, nil)
		if err := b.admit(tmpl); err != nil {
			t.Fatalf("round %d: breaker open after a success: %v", round, err)
		}
	}
	if got := b.openCount(); got != 0 {
		t.Errorf("openCount = %d, want 0", got)
	}
}

// The tracked-template map is bounded: once breakerMaxTemplates
// failing templates are tracked, a new failing template is not tracked
// and never trips, while a tracked one still does.
func TestBreakerBoundsTrackedTemplates(t *testing.T) {
	b := newBreaker()
	boom := errors.New("boom")
	for i := 0; i < breakerMaxTemplates; i++ {
		b.onCompile(fmt.Sprintf("select %d from t", i), boom)
	}
	for i := 0; i < 2*breakerThreshold; i++ {
		if b.onCompile("select untracked from t", boom) {
			t.Fatal("a template beyond the bound tripped")
		}
	}
	if err := b.admit("select untracked from t"); err != nil {
		t.Fatalf("an untracked template was rejected: %v", err)
	}
	if got := len(b.templates); got != breakerMaxTemplates {
		t.Fatalf("tracking %d templates, want %d", got, breakerMaxTemplates)
	}
	tracked := "select 0 from t"
	tripped := false
	for i := 1; i < breakerThreshold; i++ {
		tripped = b.onCompile(tracked, boom)
	}
	if !tripped || !errors.Is(b.admit(tracked), ErrBreakerOpen) {
		t.Fatal("a tracked template did not trip at the threshold")
	}
}

// Shutdown with an expired context cancels the stragglers but still
// drains them before returning; the server is cleanly closed
// afterwards.
func TestShutdownBoundedDrain(t *testing.T) {
	d, m := testDB()
	s, err := New(Config{Data: d, Machine: m, Workers: 2, MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		tk, err := s.QueryAsync(context.Background(), testQueries[i%len(testQueries)])
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: every pending query is told to stop now
	_ = s.Shutdown(ctx)

	for _, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatal("Shutdown returned with a pending ticket unresolved")
		}
	}
	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("post-shutdown occupancy inflight=%d queued=%d, want 0/0", st.InFlight, st.Queued)
	}
	if st.PoolBusy != 0 {
		t.Errorf("post-shutdown PoolBusy = %d, want 0", st.PoolBusy)
	}
	checkStatsInvariant(t, st)
	if _, err := s.QueryAsync(context.Background(), testQueries[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown submission: want ErrClosed, got %v", err)
	}
}

// A generous Shutdown lets everything finish and returns nil; calling
// it again (or Close) is a harmless no-op that still waits.
func TestShutdownCleanDrainIdempotent(t *testing.T) {
	d, m := testDB()
	s, err := New(Config{Data: d, Machine: m, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.QueryAsync(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("unhurried Shutdown: %v", err)
	}
	if resp, err := tk.Wait(context.Background()); err != nil || resp.Result.Rows == 0 {
		t.Fatalf("query admitted before Shutdown must finish: %v %v", resp, err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
	checkStatsInvariant(t, s.Stats())
}

// Regression: Close racing an in-flight EXPLAIN ANALYZE (whose
// analysis phase runs serially on the submission goroutine, outside
// the scan slots) must wait for it and never hang.
func TestCloseDuringExplainAnalyze(t *testing.T) {
	d, m := testDB()
	for round := 0; round < 3; round++ {
		s, err := New(Config{Data: d, Machine: m, Workers: 2, MaxInFlight: 4})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := s.QueryAsync(context.Background(), "explain analyze "+testQueries[3])
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer func() { _ = recover() }()
			s.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close hung against an in-flight EXPLAIN ANALYZE")
		}
		if resp, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("round %d: analyze under Close: %v", round, err)
		} else if resp.Explain == "" {
			t.Fatalf("round %d: analyze finished without a report", round)
		}
		checkStatsInvariant(t, s.Stats())
	}
}

// A morsel panic returns its scan slot and stops only its own query:
// one faulted query among concurrent healthy ones fails alone.
func TestPoolSlotSurvivesConcurrentPanic(t *testing.T) {
	inj := faults.New(3)
	// Fault roughly a quarter of the statements; the healthy ones must
	// come back bit-identical.
	inj.Enable(faults.WorkerPanic, 4, uint64(0))
	d, m := testDB()
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2, MaxInFlight: 8, Faults: inj})

	serial := make(map[string]*sql.Answer, len(testQueries))
	for _, q := range testQueries {
		_, r, err := sql.Run(d, m, q, sql.Options{Engine: "typer"})
		if err != nil {
			t.Fatal(err)
		}
		serial[q] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(testQueries))
	for round := 0; round < 4; round++ {
		for _, q := range testQueries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				resp, err := s.Submit(context.Background(), q)
				faulted := inj.ShouldFire(faults.WorkerPanic, q)
				switch {
				case err != nil:
					var perr *PanicError
					if !faulted || !errors.As(err, &perr) {
						errs <- err
					}
				case !resp.Result.Equal(serial[q].Result):
					errs <- fmt.Errorf("%s: server %v != serial %v", q, resp.Result, serial[q].Result)
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkStatsInvariant(t, s.Stats())
}

// checkStatsInvariant asserts the one-lock outcome accounting:
// Submitted == Completed + Failed + Canceled + InFlight + Queued in
// every snapshot.
func checkStatsInvariant(t *testing.T, st Stats) {
	t.Helper()
	if st.Submitted != st.Completed+st.Failed+st.Canceled+uint64(st.InFlight)+uint64(st.Queued) {
		t.Errorf("stats invariant violated: submitted=%d completed=%d failed=%d canceled=%d inflight=%d queued=%d",
			st.Submitted, st.Completed, st.Failed, st.Canceled, st.InFlight, st.Queued)
	}
}
