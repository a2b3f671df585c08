package server

import (
	"bytes"
	"io"
	"sync"

	"olapmicro/internal/obs"
)

// Telemetry is the server's metric surface: outcome counters and
// plan-cache counters (read from the consistent Stats snapshot at
// scrape time), occupancy and scan-slot gauges, and the four latency
// histograms the query path feeds. Everything renders through one
// obs.Registry in the Prometheus text exposition format.
type Telemetry struct {
	reg *obs.Registry

	// scrape is the one Stats snapshot every counter and gauge line of
	// an exposition reads, so the Stats invariants hold within a scrape;
	// scrapeMu serializes expositions around it.
	scrapeMu sync.Mutex
	scrape   Stats

	// QueueMs is admission wait, CompileMs plan compilation on a cache
	// miss, ExecMs the scan phase, WallMs submit-to-finish
	// of completed queries — all host-clock milliseconds. FastWallMs is
	// the submit-to-finish latency of the profile-free fast-mode subset
	// (also present in WallMs).
	QueueMs, CompileMs, ExecMs, WallMs, FastWallMs *obs.Histogram

	// Panics counts panics recovered anywhere in a query's lifecycle
	// (scan worker, compile path, fast-path executor, session writer) —
	// each one a query that failed instead of a process that died.
	// Deadlines counts queries that exceeded their server-side deadline;
	// RetryHints counts overload rejections that carried a retry-after
	// hint. SessionWrites counts the writes sessions made to their
	// peers: over olap_queries_submitted_total, the writes per
	// statement.
	Panics, Deadlines, RetryHints, SessionWrites *obs.Counter
}

// newTelemetry wires the registry against a server's counters.
func newTelemetry(s *Server) *Telemetry {
	r := obs.NewRegistry()
	t := &Telemetry{reg: r}
	stat := func(f func(Stats) uint64) func() uint64 {
		return func() uint64 { return f(t.scrape) }
	}
	gauge := func(f func(Stats) int) func() float64 {
		return func() float64 { return float64(f(t.scrape)) }
	}
	r.CounterFunc("olap_queries_submitted_total", stat(func(st Stats) uint64 { return st.Submitted }))
	r.CounterFunc("olap_queries_completed_total", stat(func(st Stats) uint64 { return st.Completed }))
	r.CounterFunc("olap_queries_failed_total", stat(func(st Stats) uint64 { return st.Failed }))
	r.CounterFunc("olap_queries_canceled_total", stat(func(st Stats) uint64 { return st.Canceled }))
	r.CounterFunc("olap_queries_rejected_total", stat(func(st Stats) uint64 { return st.Rejected }))
	r.CounterFunc("olap_plan_cache_hits_total", stat(func(st Stats) uint64 { return st.PlanHits }))
	r.CounterFunc("olap_plan_cache_misses_total", stat(func(st Stats) uint64 { return st.PlanMisses }))
	r.CounterFunc("olap_plan_cache_evictions_total", stat(func(st Stats) uint64 { return st.PlanEvictions }))
	r.CounterFunc("olap_plan_compile_dedup_total", stat(func(st Stats) uint64 { return st.PlanDedups }))
	r.CounterFunc("olap_queries_fast_total", stat(func(st Stats) uint64 { return st.FastCompleted }))
	r.GaugeFunc("olap_in_flight", gauge(func(st Stats) int { return st.InFlight }))
	r.GaugeFunc("olap_queue_depth", gauge(func(st Stats) int { return st.Queued }))
	r.GaugeFunc("olap_plan_cache_entries", gauge(func(st Stats) int { return st.PlanEntries }))
	r.GaugeFunc("olap_pool_slots", gauge(func(st Stats) int { return st.Workers }))
	r.GaugeFunc("olap_pool_busy_slots", gauge(func(st Stats) int { return st.PoolBusy }))
	r.GaugeFunc("olap_pool_utilization", func() float64 {
		return float64(t.scrape.PoolBusy) / float64(t.scrape.Workers)
	})
	t.Panics = r.Counter("olap_panic_recovered_total")
	t.Deadlines = r.Counter("olap_deadline_exceeded_total")
	t.RetryHints = r.Counter("olap_retry_after_hints_total")
	t.SessionWrites = r.Counter("olap_session_writes_total")
	r.CounterFunc("olap_breaker_open_total", s.brk.openCount)
	t.QueueMs = r.Histogram("olap_queue_ms", nil)
	t.CompileMs = r.Histogram("olap_compile_ms", nil)
	t.ExecMs = r.Histogram("olap_exec_ms", nil)
	t.WallMs = r.Histogram("olap_wall_ms", nil)
	t.FastWallMs = r.Histogram("olap_fast_wall_ms", nil)
	return t
}

// Telemetry exposes the server's metric surface (latency histograms
// for the benchmark baseline, the registry for /metrics).
func (s *Server) Telemetry() *Telemetry { return s.tel }

// WriteMetrics renders every metric in the Prometheus text exposition
// format — the body of olapserve's /metrics endpoint and of the
// line-protocol metrics verb. The outcome, occupancy, plan-cache and
// pool lines all come from one Stats snapshot taken here. The text is
// rendered under the scrape lock and written after it, so a stalled
// reader never blocks another scrape.
func (s *Server) WriteMetrics(w io.Writer) error {
	var buf bytes.Buffer
	s.tel.scrapeMu.Lock()
	s.tel.scrape = s.Stats()
	err := s.tel.reg.WritePrometheus(&buf)
	s.tel.scrapeMu.Unlock()
	if err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}
