package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"olapmicro/internal/faults"
	"olapmicro/internal/hw"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

// The test database is tiny (SF 0.004): the scheduler, cache and
// admission logic under test are size-independent, and many queries
// must run per test.
var (
	dbOnce sync.Once
	dbData *tpch.Data
	dbMach *hw.Machine
)

func testDB() (*tpch.Data, *hw.Machine) {
	dbOnce.Do(func() {
		dbData = tpch.Generate(0.004)
		dbMach = hw.Broadwell().Scaled(8)
	})
	return dbData, dbMach
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Data, cfg.Machine = testDB()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

var testQueries = []string{
	"select sum(l_quantity), count(*) from lineitem where l_discount < 5",
	"select sum(l_extendedprice * l_discount / 100) from lineitem where l_quantity < 24",
	"select sum(o_totalprice), o_shippriority from orders group by o_shippriority order by 1 desc",
	"select count(*), sum(l_extendedprice) from lineitem join orders on l_orderkey = o_orderkey where o_totalprice > 15000000",
	"select c_nationkey, count(*) from customer group by c_nationkey order by c_nationkey limit 5",
}

// Every concurrently-served query must return the bit-identical
// result of a dedicated serial run.
func TestServerResultsMatchSerial(t *testing.T) {
	d, m := testDB()
	s := newTestServer(t, Config{Workers: 4, QueryThreads: 2})
	var wg sync.WaitGroup
	errs := make(chan error, len(testQueries))
	for _, q := range testQueries {
		_, serial, err := sql.Run(d, m, q, sql.Options{Engine: "typer"})
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		for _, eng := range []string{"typer", "tectorwise", "auto"} {
			wg.Add(1)
			go func(q, eng string) {
				defer wg.Done()
				resp, err := s.Submit(context.Background(), q, WithEngine(eng))
				if err != nil {
					errs <- fmt.Errorf("%s on %s: %v", q, eng, err)
					return
				}
				if !resp.Result.Equal(serial.Result) {
					errs <- fmt.Errorf("%s on %s: server %v != serial %v", q, eng, resp.Result, serial.Result)
				}
			}(q, eng)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Completed != uint64(3*len(testQueries)) {
		t.Errorf("completed %d, want %d", st.Completed, 3*len(testQueries))
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("idle server reports inflight=%d queued=%d", st.InFlight, st.Queued)
	}
}

// A query served concurrently must also report the same simulated
// profile as a dedicated parallel run at the same thread count —
// sharing the scan slots may delay it, never distort it.
func TestServerProfileMatchesDedicatedParallel(t *testing.T) {
	d, m := testDB()
	s := newTestServer(t, Config{Workers: 4, QueryThreads: 4})
	q := testQueries[0]
	_, dedicated, err := sql.Run(d, m, q, sql.Options{Engine: "typer", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Load the scan slots with neighbors so the morsels genuinely interleave.
	var wg sync.WaitGroup
	for _, other := range testQueries[1:] {
		wg.Add(1)
		go func(other string) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), other); err != nil {
				t.Errorf("neighbor %q: %v", other, err)
			}
		}(other)
	}
	resp, err := s.Submit(context.Background(), q, WithEngine("typer"))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Equal(dedicated.Result) {
		t.Fatalf("result %v != dedicated %v", resp.Result, dedicated.Result)
	}
	if resp.Threads != dedicated.Threads {
		t.Fatalf("threads %d != dedicated %d", resp.Threads, dedicated.Threads)
	}
	if resp.Profile.Seconds != dedicated.Profile.Seconds {
		t.Errorf("shared-slot profile %.9fs != dedicated %.9fs", resp.Profile.Seconds, dedicated.Profile.Seconds)
	}
	if resp.Profile.Instructions != dedicated.Profile.Instructions {
		t.Errorf("shared-slot uops %d != dedicated %d", resp.Profile.Instructions, dedicated.Profile.Instructions)
	}
}

// Repeated statements must hit the plan cache; variants in case,
// whitespace and comments share the entry.
func TestServerPlanCacheHits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	q := "select count(*) from nation"
	variants := []string{
		q,
		"SELECT COUNT(*) FROM nation",
		"select  count(*)  -- comment\n from nation;",
	}
	for i, v := range variants {
		resp, err := s.Submit(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		if want := i > 0; resp.CacheHit != want {
			t.Errorf("variant %d: CacheHit = %v, want %v", i, resp.CacheHit, want)
		}
	}
	st := s.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 2 {
		t.Errorf("hits=%d misses=%d, want 2/1", st.PlanHits, st.PlanMisses)
	}
	if st.PlanHitRate() < 0.6 {
		t.Errorf("hit rate %.2f, want ~0.67", st.PlanHitRate())
	}
}

// EXPLAIN is planned (and cached) but never executed.
func TestServerExplain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	resp, err := s.Submit(context.Background(), "explain select count(*) from nation")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Executed {
		t.Error("EXPLAIN must not execute")
	}
	if !strings.Contains(resp.Explain, "scan nation") {
		t.Errorf("explain missing plan:\n%s", resp.Explain)
	}
	if resp.Parallel != nil {
		t.Error("EXPLAIN must not report parallel accounting")
	}
}

// A statement the planner rejects fails the submission and counts as
// Failed, not Completed.
func TestServerCompileError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	_, err := s.Submit(context.Background(), "select broken from nowhere")
	if err == nil {
		t.Fatal("want compile error")
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Errorf("stats after failure: %+v", st)
	}
}

// A submission whose context is already canceled must come back
// context.Canceled without executing.
func TestServerCancelBeforeRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(context.Background(), "select count(*) from nation") // warm one completion
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.QueryAsync(ctx, "select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if st := s.Stats(); st.Canceled != 1 {
		t.Errorf("canceled count %d, want 1", st.Canceled)
	}
}

// Cancel by id: unknown ids are rejected; a pending id cancels and
// the ticket reports context.Canceled.
func TestServerCancelByID(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	if err := s.Cancel(999); err == nil {
		t.Error("canceling an unknown id must fail")
	}
	ctx := context.Background()
	// Race-free cancellation: cancel the ticket before it can finish by
	// submitting under a context we control and canceling via the
	// server as soon as the ticket exists. The query may still win the
	// race and complete; both outcomes are legal, but a canceled one
	// must report context.Canceled.
	tk, err := s.QueryAsync(ctx, "select sum(l_extendedprice) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(tk.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("want nil or context.Canceled, got %v", err)
	}
}

// Admission: with both budgets full a submission is rejected with
// ErrOverloaded and counted.
func TestServerAdmissionOverload(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 1, MaxQueue: 1})
	// Fill both budgets directly — queries on this database finish too
	// fast to hold slots open reliably.
	s.sem <- struct{}{}
	s.queue <- struct{}{}
	_, err := s.QueryAsync(context.Background(), "select count(*) from nation")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected count %d, want 1", st.Rejected)
	}
	// Queue has room once the in-flight budget's holder leaves.
	<-s.queue
	tk, err := s.QueryAsync(context.Background(), "select count(*) from nation")
	if err != nil {
		t.Fatalf("queued submission: %v", err)
	}
	<-s.sem // the synthetic in-flight holder departs; the queued query runs
	if resp, err := tk.Wait(context.Background()); err != nil || resp.Result.Rows != 1 {
		t.Fatalf("queued query: %v %v", resp, err)
	}
}

// A queued submission whose context dies while waiting is released
// without running.
func TestServerQueuedCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 1, MaxQueue: 2})
	s.sem <- struct{}{} // hold the only in-flight slot
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := s.QueryAsync(ctx, "select count(*) from nation")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := tk.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	<-s.sem
}

// Closed servers reject new work; Close drains pending work first.
func TestServerClose(t *testing.T) {
	d, m := testDB()
	cfg := Config{Data: d, Machine: m, Workers: 2}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.QueryAsync(context.Background(), "select count(*) from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if resp, err := tk.Wait(context.Background()); err != nil || resp.Result.Rows != 1 {
		t.Fatalf("query submitted before Close must finish: %v %v", resp, err)
	}
	if _, err := s.QueryAsync(context.Background(), "select count(*) from nation"); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	s.Close() // idempotent
}

// Workers is a cap on executing morsels, not on goroutines: sixteen
// workers of eight concurrent queries never hold more than two scan
// slots, and every slot is back once the server drains. The
// slow-morsel fault stalls each query inside a slot, so the slots are
// contended for long enough to be sampled.
func TestScanSlotsCapExecutingMorsels(t *testing.T) {
	inj := faults.New(1)
	inj.Enable(faults.SlowMorsel, 1, 0) // every statement, once each
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2, MaxInFlight: 8, Faults: inj})

	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
			}
			if busy := s.Stats().PoolBusy; busy > peak {
				peak = busy
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("select sum(l_quantity), count(*) from lineitem where l_discount < %d", i+1)
			if _, err := s.Submit(context.Background(), q); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if peak := <-sampled; peak != 2 {
		t.Errorf("peak PoolBusy = %d, want the 2 slots saturated and never exceeded", peak)
	}
	if busy := s.Stats().PoolBusy; busy != 0 {
		t.Errorf("drained PoolBusy = %d, want 0", busy)
	}
}

// A server owns no long-lived goroutine: every one it starts belongs
// to a submission, so after Close the process is back to the goroutine
// count it had before New.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	d, m := testDB()
	before := runtime.NumGoroutine()
	s, err := New(Config{Data: d, Machine: m, Workers: 4, QueryThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range testQueries {
		for _, opts := range [][]SubmitOption{nil, {WithFast()}} {
			if _, err := s.Submit(context.Background(), q, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	// Close returns when the last submission has retired; its goroutine
	// may still be a few instructions from exiting.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before New, %d after Close", before, after)
	}
}

// Defaults resolve and invalid configs are rejected.
func TestServerConfigDefaults(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without Data/Machine must fail")
	}
	s := newTestServer(t, Config{})
	cfg := s.Config()
	if cfg.Workers != 4 || cfg.QueryThreads != 4 || cfg.MaxInFlight != 8 ||
		cfg.MaxQueue != 32 || cfg.PlanCache != 64 || cfg.Engine != "auto" {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	// Per-query thread overrides clamp to the scan-slot count.
	resp, err := s.Submit(context.Background(), "select count(*) from lineitem", WithThreads(64))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Threads > cfg.Workers {
		t.Errorf("threads %d exceeded the %d scan slots", resp.Threads, cfg.Workers)
	}
}

// The cache-hit frame's allocation budget, per fast submission of a
// statement whose kernel does nothing (no order matches a negative
// price). It pins the front end's shape: a literal text is lexed once,
// an explicit template once, a prepared handle not at all — the parent
// of this gate read 111 / 86 with three / two lexer passes, so each
// ceiling sits at least 40 below that and a reintroduced pass (about
// 25 allocations before the lexer stopped copying words, about 5 now
// — which is why the handle's ceiling is tight) fails it.
func TestSubmitAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	s := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	const template = "select count(*) from orders where o_totalprice < ?"
	handle := sql.Identify(template, false)
	for _, form := range []struct {
		name    string
		text    string
		opts    []SubmitOption
		ceiling float64
	}{
		{"text", "select count(*) from orders where o_totalprice < 0", []SubmitOption{WithFast()}, 29},
		{"WithArgs", template, []SubmitOption{WithFast(), WithArgs([]int64{0})}, 28},
		{"prepared", template, []SubmitOption{WithFast(), withPrepared(&handle, []int64{0})}, 23},
	} {
		submit := func() {
			resp, err := s.Submit(ctx, form.text, form.opts...)
			if err != nil || !resp.Fast || resp.Result.Sum != 0 {
				t.Fatalf("%s: resp %+v err %v", form.name, resp, err)
			}
		}
		submit() // prime the plan cache and the fast plan
		if got := testing.AllocsPerRun(200, submit); got > form.ceiling {
			t.Errorf("%s: %.0f allocations per cache-hit fast submission, ceiling %.0f", form.name, got, form.ceiling)
		} else {
			t.Logf("%s: %.0f allocations (ceiling %.0f)", form.name, got, form.ceiling)
		}
	}
}

// One submission, one lookup: over every form and outcome that reaches
// the plan cache — literal text, WithArgs, a prepared handle, an arity
// error, a compile error, EXPLAIN, text the lexer rejects — hits plus
// misses equals the submission count.
func TestPlanOneLookupPerSubmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	const template = "select count(*) from orders where o_totalprice < ?"
	handle := sql.Identify(template, false)
	var wantHits uint64
	for i, sub := range []struct {
		text   string
		opts   []SubmitOption
		ok     bool
		cached bool
	}{
		{"select count(*) from orders where o_totalprice < 7", nil, true, false},
		{"SELECT count(*)  FROM orders WHERE o_totalprice < 7", nil, true, true},
		{template, []SubmitOption{WithArgs([]int64{7})}, true, true},
		{template, []SubmitOption{withPrepared(&handle, []int64{7})}, true, true},
		{template, []SubmitOption{withPrepared(&handle, []int64{8})}, true, false},
		{template, []SubmitOption{withPrepared(&handle, nil)}, false, false},
		{template, []SubmitOption{WithArgs([]int64{1, 2})}, false, false},
		{"select count(*) from orders where o_totlprice < 7", nil, false, false},
		{"explain select count(*) from orders where o_totalprice < 7", nil, true, false},
		{"select $ from orders", nil, false, false},
	} {
		resp, err := s.Submit(ctx, sub.text, sub.opts...)
		if (err == nil) != sub.ok || err == nil && resp.CacheHit != sub.cached {
			t.Errorf("submission %d (%q): resp %+v err %v, want ok=%v cached=%v", i, sub.text, resp, err, sub.ok, sub.cached)
		}
		if sub.cached {
			wantHits++
		}
		st := s.Stats()
		if st.PlanHits != wantHits || st.PlanHits+st.PlanMisses != uint64(i+1) {
			t.Fatalf("after %d submissions: plan-hits=%d (want %d) plan-misses=%d, want hits+misses=%d",
				i+1, st.PlanHits, wantHits, st.PlanMisses, i+1)
		}
	}
}

// A fast join runs on its fast plan: it answers Fast with the measured
// run's result, and takes no scan slot — it completes while every slot
// is held elsewhere, and leaves the pool idle.
func TestFastJoinTakesNoScanSlot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2})
	q := testQueries[3]
	measured, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := s.Submit(ctx, q, WithFast())
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}
	if err != nil {
		t.Fatalf("fast join with every scan slot held: %v", err)
	}
	if !resp.Fast || !resp.Result.Equal(measured.Result) {
		t.Errorf("fast join: fast=%v result %v, want fast and the measured %v", resp.Fast, resp.Result, measured.Result)
	}
	if busy := s.Stats().PoolBusy; busy != 0 {
		t.Errorf("PoolBusy = %d after the fast join, want 0", busy)
	}
}
