// The chaos mode of the randomized differential tester: the same
// generated corpus runs through the server with deterministic fault
// injection armed — compile errors, compile panics, worker panics, slow
// morsels and plan-cache eviction storms — at 1, 2, 4 and 8 concurrent
// streams.
// The injector's fire decision is a pure function of (seed, point,
// statement text), so each schedule predicts exactly which queries it
// faults and asserts that everything else still returns the serial
// engine's bit-identical answer, that every failure is attributable
// to the injection (directly, or as a circuit-breaker trip it
// caused), that the process never dies, and that the server drains
// clean. Like the concurrency tester this lives in the external
// sql_test package because it imports internal/server.
package sql_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"olapmicro/internal/engine"
	"olapmicro/internal/faults"
	"olapmicro/internal/server"
	"olapmicro/internal/sql"
)

// chaosSeed seeds every schedule's injector. Distinct from the corpus
// seed: the corpus decides what runs, the injector decides what breaks.
const chaosSeed = 42

// chaosEntry is one corpus query with its serial reference answer.
type chaosEntry struct {
	sql string
	res engine.Result
}

// chaosSchedule is one armed fault plus the rules for judging a run
// under it.
type chaosSchedule struct {
	name string
	p    faults.Point
	// mod/rem select which statement texts fire (hash%mod == rem).
	mod, rem uint64
	// breaks reports whether a faulted query is expected to fail; slow
	// morsels and eviction storms must be invisible in results.
	breaks bool
	// exactCount asserts the fire count equals the predicted distinct
	// faulted-text count (true when every submission reaches the site;
	// a fast plan whose filter compiles to never-match scans no morsel,
	// and the default corpus faults no such submission).
	exactCount bool
}

// TestChaosDifferentialStreams replays the differential corpus under
// each fault schedule. CI runs it with -race -short as the chaos
// smoke; the full corpus runs in the regular suite.
func TestChaosDifferentialStreams(t *testing.T) {
	d, m := sql.DiffDB()
	seed, n := sql.DiffSeedN(t)
	streamCounts := []int{1, 2, 4, 8}

	// Serial references once, shared by every schedule and stream count.
	corpus := make([]chaosEntry, n)
	for i := range corpus {
		r := rand.New(rand.NewSource(seed + int64(i)))
		q := sql.GenDiffQuery(d, r)
		_, a, err := sql.Run(d, m, q, sql.Options{Engine: "typer"})
		if err != nil {
			t.Fatalf("seed %d query %d:\n  %s\n  serial typer: %v", seed, i, q, err)
		}
		corpus[i] = chaosEntry{sql: q, res: a.Result}
	}

	schedules := []chaosSchedule{
		// Roughly a quarter of the corpus fails to compile. Literal
		// variants of a poison statement share a breaker, so collateral
		// ErrBreakerOpen rejections are legitimate; anything that
		// succeeds must still be exact.
		{name: "compile-error", p: faults.CompileError, mod: 4, rem: 1, breaks: true},
		// A panic inside the plan cache's compile closure fails the
		// submission that owns the flight (and any waiter sharing it) with
		// a PanicError, trips no breaker and strands no key.
		{name: "compile-panic", p: faults.CompilePanic, mod: 4, rem: 3, breaks: true},
		// A panic on a scan worker's morsel — measured or fast, joins
		// included — becomes that one query's PanicError and nothing
		// else's.
		{name: "worker-panic", p: faults.WorkerPanic, mod: 4, rem: 2, breaks: true, exactCount: true},
		// A stalled morsel reorders the scan's interleaving but must never
		// reorder arithmetic: zero failures, all results exact.
		{name: "slow-morsel", p: faults.SlowMorsel, mod: 3, rem: 0},
		// Purging the whole plan cache ahead of ~a third of lookups
		// forces worst-case recompiles; correctness must not notice.
		{name: "eviction-storm", p: faults.EvictionStorm, mod: 3, rem: 1, exactCount: true},
	}

	for _, sch := range schedules {
		sch := sch
		t.Run(sch.name, func(t *testing.T) {
			// Predict the faulted set from the pure decision function.
			predicted := make(map[string]bool)
			probe := faults.New(chaosSeed)
			probe.Enable(sch.p, sch.mod, sch.rem)
			for _, e := range corpus {
				if probe.ShouldFire(sch.p, e.sql) {
					predicted[e.sql] = true
				}
			}
			if len(predicted) == 0 {
				t.Fatalf("schedule faults nothing; retune mod/rem (corpus seed %d, n %d)", seed, n)
			}
			for _, streams := range streamCounts {
				streams := streams
				t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
					runChaosPass(t, corpus, sch, predicted, streams, seed)
				})
			}
		})
	}
}

// runChaosPass pushes the whole corpus through one server with one
// armed fault schedule and judges every outcome.
func runChaosPass(t *testing.T, corpus []chaosEntry, sch chaosSchedule, predicted map[string]bool, streams int, seed int64) {
	d, m := sql.DiffDB()
	inj := faults.New(chaosSeed)
	inj.Enable(sch.p, sch.mod, sch.rem)
	srv, err := server.New(server.Config{
		Data: d, Machine: m,
		Workers: 4, QueryThreads: 2,
		MaxInFlight: streams, MaxQueue: streams,
		PlanCache: 32,
		Faults:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	qerr := make([]error, len(corpus))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
	)
	fail := func(i int, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		errs = append(errs, fmt.Sprintf("%s streams %d seed %d query %d:\n  %s\n  %s",
			sch.name, streams, seed, i, corpus[i].sql, fmt.Sprintf(format, args...)))
	}
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(corpus); i += streams {
				// Alternate measured and profile-free fast submissions.
				var opts []server.SubmitOption
				fast := i%2 == 1
				if fast {
					opts = append(opts, server.WithFast())
				}
				resp, err := srv.Submit(context.Background(), corpus[i].sql, opts...)
				qerr[i] = err
				if err != nil {
					judgeChaosFailure(fail, i, corpus[i].sql, err, sch, predicted, streams, fast)
					continue
				}
				if !resp.Result.Equal(corpus[i].res) {
					fail(i, "result disagrees under %s: %v != serial %v", sch.name, resp.Result, corpus[i].res)
				}
			}
		}(s)
	}
	wg.Wait()
	for _, e := range errs {
		t.Error(e)
	}

	// At one stream the run is sequential, so the oracle is exact:
	// every statement whose compile actually fired must have failed.
	if streams == 1 && (sch.p == faults.CompileError || sch.p == faults.CompilePanic) {
		for i, e := range corpus {
			if inj.Fired(sch.p, e.sql) && qerr[i] == nil {
				t.Errorf("query %d fired %s but succeeded:\n  %s", i, sch.p, e.sql)
			}
		}
	}
	if sch.exactCount {
		if got, want := inj.Count(sch.p), uint64(len(predicted)); got != want {
			t.Errorf("%s fired for %d distinct statements, predicted %d", sch.p, got, want)
		}
	} else if inj.Count(sch.p) == 0 {
		t.Errorf("%s never fired over %d queries", sch.p, len(corpus))
	}

	// The server must come out drained and self-consistent: every
	// submission accounted a final outcome, nothing stuck on a scan slot.
	st := srv.Stats()
	if got := st.Completed + st.Failed + st.Canceled; got != uint64(len(corpus)) {
		t.Errorf("outcomes sum to %d, want the corpus size %d", got, len(corpus))
	}
	if st.Submitted != st.Completed+st.Failed+st.Canceled+uint64(st.InFlight)+uint64(st.Queued) {
		t.Errorf("stats invariant violated: %+v", st)
	}
	if st.InFlight != 0 || st.Queued != 0 || st.PoolBusy != 0 {
		t.Errorf("not drained: inflight=%d queued=%d poolbusy=%d", st.InFlight, st.Queued, st.PoolBusy)
	}
	if (sch.p == faults.WorkerPanic || sch.p == faults.CompilePanic) && st.PanicsRecovered == 0 {
		t.Errorf("%s schedule recovered no panics", sch.name)
	}
}

// judgeChaosFailure decides whether one failed submission is an
// acceptable consequence of the armed schedule.
func judgeChaosFailure(fail func(int, string, ...any), i int, text string, err error, sch chaosSchedule, predicted map[string]bool, streams int, fast bool) {
	if !sch.breaks {
		fail(i, "%s must be invisible, got: %v", sch.name, err)
		return
	}
	var injected *faults.ErrInjected
	switch sch.p {
	case faults.CompileError:
		// Injected compile failures may also surface as breaker trips
		// (literal variants of one template share a breaker), and — at
		// multiple streams — as a shared in-flight compile whose owner
		// was the faulted text.
		switch {
		case errors.Is(err, server.ErrBreakerOpen):
		case errors.As(err, &injected):
			if streams == 1 && !predicted[text] {
				fail(i, "sequential run failed a non-faulted query with the injected error: %v", err)
			}
		default:
			fail(i, "unattributable failure under %s: %v", sch.name, err)
		}
	case faults.WorkerPanic:
		var perr *server.PanicError
		if !errors.As(err, &perr) || !errors.As(err, &injected) || !predicted[text] {
			fail(i, "unattributable failure under %s: %v", sch.name, err)
			return
		}
		// Fast and measured scans alike panic on a scan worker's morsel.
		if perr.Op != "scan-worker" {
			fail(i, "worker panic surfaced as %q, want scan-worker (fast=%v): %v", perr.Op, fast, err)
		}
	case faults.CompilePanic:
		// The flight's owner is the faulted text, recovered on its own
		// submission frame; a waiter that shared the flight (another
		// spelling of the same plan key) gets the flight's own error.
		var perr *server.PanicError
		switch {
		case !errors.As(err, &perr) || !errors.As(err, &injected) || injected.Point != faults.CompilePanic:
			fail(i, "unattributable failure under %s: %v", sch.name, err)
		case perr.Op == "plan-compile" && streams > 1:
		case perr.Op != "execute" || !predicted[text]:
			fail(i, "compile panic surfaced as %q on a text the schedule did not fault: %v", perr.Op, err)
		}
	default:
		fail(i, "unattributable failure under %s: %v", sch.name, err)
	}
}
