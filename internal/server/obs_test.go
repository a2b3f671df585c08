package server

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"olapmicro/internal/faults"
)

// TestStatsConsistentUnderLoad is the regression test for the torn
// Stats snapshot: the outcome counters and the occupancy now change
// inside the same critical section as the state transition they
// describe, so every snapshot satisfies the exact invariant
// Submitted == Completed + Failed + Canceled + InFlight + Queued —
// even while queries are admitted, promoted from the queue, canceled
// and finished concurrently. Half the readers check it through
// /metrics instead: one exposition is one snapshot, so the same
// equation holds across the lines of every scrape (it did not while
// each line took its own Stats). Run under -race this also hammers the
// lock discipline of the whole stats path.
func TestStatsConsistentUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 1, MaxInFlight: 2, MaxQueue: 64})
	ctx := context.Background()

	occupancy := regexp.MustCompile(`(?m)^olap_(queries_submitted_total|queries_completed_total|queries_failed_total|queries_canceled_total|in_flight|queue_depth) (\d+)$`)
	scrape := func() (st Stats) {
		var b strings.Builder
		if err := s.WriteMetrics(&b); err != nil {
			t.Error(err)
		}
		lines := occupancy.FindAllStringSubmatch(b.String(), -1)
		if len(lines) != 6 {
			t.Errorf("scrape carries %d of the 6 occupancy samples:\n%s", len(lines), b.String())
		}
		for _, m := range lines {
			v, _ := strconv.ParseUint(m[2], 10, 64)
			switch m[1] {
			case "queries_submitted_total":
				st.Submitted = v
			case "queries_completed_total":
				st.Completed = v
			case "queries_failed_total":
				st.Failed = v
			case "queries_canceled_total":
				st.Canceled = v
			case "in_flight":
				st.InFlight = int(v)
			case "queue_depth":
				st.Queued = int(v)
			}
		}
		return st
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		snapshot := s.Stats
		if r%2 == 1 {
			snapshot = scrape
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := snapshot()
				if got := st.Completed + st.Failed + st.Canceled + uint64(st.InFlight) + uint64(st.Queued); got != st.Submitted {
					t.Errorf("torn stats snapshot: submitted=%d but completed=%d+failed=%d+canceled=%d+inflight=%d+queued=%d = %d",
						st.Submitted, st.Completed, st.Failed, st.Canceled, st.InFlight, st.Queued, got)
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 8; i++ {
				q := testQueries[(w+i)%len(testQueries)]
				tk, err := s.QueryAsync(ctx, q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if (w+i)%3 == 0 {
					tk.Cancel() // exercise the canceled transitions too
				}
				if _, err := tk.Wait(ctx); err != nil && err != context.Canceled {
					t.Errorf("worker %d: %v", w, err)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("drained server still reports inflight=%d queued=%d", st.InFlight, st.Queued)
	}
	if st.Submitted != 32 {
		t.Errorf("submitted = %d, want 32", st.Submitted)
	}
}

// TestQuerySpanTree pins the per-query trace: queue-wait, plan
// (annotated with the cache outcome), build, execute with one
// aggregated span per scan worker, and finalize, all under one root.
func TestQuerySpanTree(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2})
	resp, err := s.Submit(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("response carries no trace")
	}
	for _, name := range []string{"queue-wait", "plan", "build", "execute", "worker[0]", "worker[1]", "finalize"} {
		if resp.Trace.Find(name) == nil {
			t.Errorf("trace missing span %q:\n%s", name, resp.Trace.Render())
		}
	}
	text := resp.Trace.Render()
	if !strings.Contains(text, "cache=false") {
		t.Errorf("first run's plan span should note the cache miss:\n%s", text)
	}
	if !strings.Contains(text, "morsels=") {
		t.Errorf("worker spans should note their morsel counts:\n%s", text)
	}
	// The compile spans hang under the plan span on a miss.
	if resp.Trace.Find("bind+plan") == nil {
		t.Errorf("trace missing the adopted compile spans:\n%s", text)
	}
	resp2, err := s.Submit(context.Background(), testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp2.Trace.Render(), "cache=true") {
		t.Errorf("repeat run's plan span should note the cache hit:\n%s", resp2.Trace.Render())
	}
}

// TestServerExplainAnalyze pins the service-side EXPLAIN ANALYZE
// contract: it executes (off the scan slots, as the serial reference
// run), reports the analysis in Explain, and its result is
// bit-identical to the same statement's execution on the scan slots.
func TestServerExplainAnalyze(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueryThreads: 4})
	q := testQueries[1]
	plain, err := s.Submit(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(context.Background(), "explain analyze "+q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Executed {
		t.Error("EXPLAIN ANALYZE must execute")
	}
	if resp.Threads != 1 {
		t.Errorf("analyze ran with %d threads, want the serial reference run", resp.Threads)
	}
	if !resp.Result.Equal(plain.Result) {
		t.Errorf("analyzed result %v != plain result %v", resp.Result, plain.Result)
	}
	for _, want := range []string{"predicted vs observed", "operators (observed", "timings (host wall):"} {
		if !strings.Contains(resp.Explain, want) {
			t.Errorf("analysis report missing %q:\n%s", want, resp.Explain)
		}
	}
	if resp.Trace == nil || resp.Trace.Find("analyze") == nil {
		t.Error("analyze run missing its trace span")
	}
}

// metricValue extracts one un-labelled sample from an exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("exposition has no sample %q:\n%s", name, text)
	}
	var v float64
	if _, err := fmt.Sscanf(m[1], "%g", &v); err != nil {
		t.Fatalf("sample %s=%q: %v", name, m[1], err)
	}
	return v
}

// expositionLine matches every legal line of the text format we emit:
// a # TYPE comment or a sample with an optional label set.
var expositionLine = regexp.MustCompile(
	`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.+eInf]+)$`)

// TestMetricsExposition runs a small workload and scrapes the
// registry: the outcome counters must account for every submission,
// the latency histograms must have observed every completed query,
// and every line must be well-formed Prometheus text exposition.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueryThreads: 2})
	ctx := context.Background()
	for _, q := range testQueries {
		if _, err := s.Submit(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	n := float64(len(testQueries))
	if got := metricValue(t, text, "olap_queries_submitted_total"); got != n {
		t.Errorf("submitted_total = %g, want %g", got, n)
	}
	if got := metricValue(t, text, "olap_queries_completed_total"); got != n {
		t.Errorf("completed_total = %g, want %g", got, n)
	}
	if got := metricValue(t, text, "olap_wall_ms_count"); got != n {
		t.Errorf("wall histogram observed %g queries, want %g", got, n)
	}
	if got := metricValue(t, text, "olap_queue_ms_count"); got != n {
		t.Errorf("queue histogram observed %g queries, want %g", got, n)
	}
	if got := metricValue(t, text, "olap_pool_slots"); got != 2 {
		t.Errorf("pool_slots = %g, want 2", got)
	}
	if got := metricValue(t, text, "olap_in_flight"); got != 0 {
		t.Errorf("drained server reports in_flight = %g", got)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestResilienceMetricsExposition drives each resilience path once —
// an injected worker panic, an expired deadline, a tripped compile
// breaker and an overload rejection — and scrapes the registry: the
// four resilience counters must appear in the exposition with the
// driven values, formatted like every other line.
func TestResilienceMetricsExposition(t *testing.T) {
	inj := faults.New(11)
	inj.Enable(faults.WorkerPanic, 1, 0)
	s := newTestServer(t, Config{Workers: 1, MaxInFlight: 1, MaxQueue: 1, Faults: inj})
	ctx := context.Background()

	if _, err := s.Submit(ctx, testQueries[0]); err == nil {
		t.Fatal("injected panic must fail the query")
	}
	if _, err := s.Submit(ctx, testQueries[1], WithTimeout(time.Nanosecond)); err == nil {
		t.Fatal("nanosecond deadline must expire")
	}
	for i := 0; i < breakerThreshold; i++ {
		if _, err := s.Submit(ctx, "select broken from nowhere"); err == nil {
			t.Fatal("poison statement must fail to compile")
		}
	}
	s.sem <- struct{}{}
	s.queue <- struct{}{}
	if _, err := s.QueryAsync(ctx, testQueries[2]); err == nil {
		t.Fatal("full budgets must reject")
	}
	<-s.sem
	<-s.queue

	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for name, want := range map[string]float64{
		"olap_panic_recovered_total":   1,
		"olap_deadline_exceeded_total": 1,
		"olap_breaker_open_total":      1,
		"olap_retry_after_hints_total": 1,
	} {
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}
