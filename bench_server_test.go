// Server sweep tests and benchmarks. The repeated-query workload (a
// small set of distinct statements, many submissions each) runs
// through the concurrent query server at 1, 4 and 8 streams, once in
// measured mode and once in profile-free fast mode:
//
//	go test -bench Server -benchtime=1x
//
// reports queries/sec per stream count, simulated per-query cost and
// the plan-cache hit rate for both series. Nothing is written to disk:
// the repository's benchmark is benchmark/ (see its README); what
// lives here is the host-independent gate. Fast mode exists to strip
// the simulation cost, so its single-stream throughput must stay
// >= 50x the measured series'.
package olapmicro

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"olapmicro/internal/hw"
	"olapmicro/internal/server"
	"olapmicro/internal/tpch"
)

// The bench database is small (SF 0.02): the quantities under test —
// scheduling, cache behavior, relative throughput across stream
// counts — are shape-level, and the workload runs dozens of times.
var (
	benchSrvOnce sync.Once
	benchSrvData *tpch.Data
	benchSrvMach *hw.Machine
)

func benchServerDB() (*tpch.Data, *hw.Machine) {
	benchSrvOnce.Do(func() {
		benchSrvData = tpch.Generate(0.02)
		benchSrvMach = hw.Broadwell().Scaled(8)
	})
	return benchSrvData, benchSrvMach
}

// serverBenchWorkload is the repeated-query mix: distinct plans so
// the cache holds several entries, repeated submissions so it hits.
var serverBenchWorkload = []string{
	"select sum(l_extendedprice * l_discount / 100) from lineitem where l_discount between 5 and 7 and l_quantity < 24",
	"select sum(l_quantity), count(*) from lineitem where l_shipdate <= date '1998-09-02' group by l_returnflag, l_linestatus",
	"select count(*), sum(o_totalprice) from orders where o_totalprice > 15000000",
	"select c_nationkey, count(*) from customer group by c_nationkey order by c_nationkey limit 5",
}

// streamPoint is one measured sweep point. The percentiles come from
// the server's own latency histograms (the obs layer feeding
// /metrics), so they are what a scrape would report: wall =
// submit-to-finish, queue = admission wait, both host-clock
// milliseconds.
type streamPoint struct {
	Streams     int
	Queries     int
	WallQPS     float64
	SimMsMean   float64
	PlanHitRate float64
	WallP50Ms   float64
	WallP95Ms   float64
	WallP99Ms   float64
	QueueP50Ms  float64
	QueueP95Ms  float64
	QueueP99Ms  float64
}

// runServerWorkload pushes reps rounds of the workload through a
// fresh server at the given stream count and reports the sweep point,
// submitting in fast mode when fast is set. One synchronous pass in
// the same mode primes the plan cache (and, for fast, the compiled
// fast plans) so hit rates compare across stream counts.
func runServerWorkload(tb testing.TB, streams, reps int, fast bool) streamPoint {
	tb.Helper()
	d, m := benchServerDB()
	srv, err := server.New(server.Config{
		Data: d, Machine: m,
		Workers: 4, QueryThreads: 2,
		MaxInFlight: streams, MaxQueue: streams * len(serverBenchWorkload) * reps,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	var opts []server.SubmitOption
	if fast {
		opts = append(opts, server.WithFast())
	}
	ctx := context.Background()
	for _, q := range serverBenchWorkload {
		if _, err := srv.Submit(ctx, q, opts...); err != nil {
			tb.Fatal(err)
		}
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		simSec float64
		served int
	)
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				q := serverBenchWorkload[(s+rep)%len(serverBenchWorkload)]
				resp, err := srv.Submit(ctx, q, opts...)
				if err != nil {
					tb.Errorf("streams %d: %v", streams, err)
					return
				}
				if resp.Fast != fast {
					tb.Errorf("streams %d: response fast=%v, want %v", streams, resp.Fast, fast)
					return
				}
				mu.Lock()
				simSec += resp.Profile.Seconds
				served++
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	st := srv.Stats()
	tel := srv.Telemetry()
	p := streamPoint{
		Streams:     streams,
		Queries:     served,
		PlanHitRate: st.PlanHitRate(),
		WallP50Ms:   tel.WallMs.Quantile(0.50),
		WallP95Ms:   tel.WallMs.Quantile(0.95),
		WallP99Ms:   tel.WallMs.Quantile(0.99),
		QueueP50Ms:  tel.QueueMs.Quantile(0.50),
		QueueP95Ms:  tel.QueueMs.Quantile(0.95),
		QueueP99Ms:  tel.QueueMs.Quantile(0.99),
	}
	if wall > 0 {
		p.WallQPS = float64(served) / wall
	}
	if served > 0 {
		p.SimMsMean = simSec / float64(served) * 1e3
	}
	return p
}

// fastSpeedupFloor is the regression gate on the fast path: the whole
// point of profile-free execution is shedding the simulation cost, so
// single-stream fast throughput must stay at least this many times the
// measured baseline's. Both rates come from the same host in the same
// run, so the ratio is robust to machine speed.
const fastSpeedupFloor = 50.0

// speedupPairs is how many back-to-back (measured, fast) single-stream
// pairs the floor is judged on. The gate reads their median ratio: one
// ~0.1 s sample against one ~0.03 s sample, taken while two dozen
// sibling test binaries share the host, moves by a factor of two, and
// a suite that fails one run in five rejects correct changes. A median
// is not a best-of: three of the five pairs must clear the floor, so
// one lucky sample cannot pass a real regression.
const speedupPairs = 5

// TestServerBenchBaseline sweeps both series and pins their
// invariants: every sweep point serves the whole workload and hits the
// primed plan cache, the measured series carries simulated profiles
// and the fast series none, and the fast series clears the throughput
// floor.
func TestServerBenchBaseline(t *testing.T) {
	reps, fastReps := 6, 120
	if testing.Short() {
		reps, fastReps = 2, 40
	}
	measured := func(streams int) streamPoint {
		p := runServerWorkload(t, streams, reps, false)
		if p.Queries != streams*reps {
			t.Errorf("streams %d: served %d, want %d", streams, p.Queries, streams*reps)
		}
		if p.SimMsMean <= 0 {
			t.Errorf("streams %d: simulated per-query cost missing", streams)
		}
		if p.WallP50Ms <= 0 {
			t.Errorf("streams %d: wall p50 missing (latency histograms not fed)", streams)
		}
		checkSweepPoint(t, "measured", p)
		return p
	}
	fast := func(streams int) streamPoint {
		p := runServerWorkload(t, streams, fastReps, true)
		if p.Queries != streams*fastReps {
			t.Errorf("fast streams %d: served %d, want %d", streams, p.Queries, streams*fastReps)
		}
		if p.SimMsMean != 0 {
			t.Errorf("fast streams %d: simulated cost %.4f ms leaked into profile-free mode", streams, p.SimMsMean)
		}
		checkSweepPoint(t, "fast", p)
		return p
	}
	for _, streams := range []int{4, 8} {
		measured(streams)
		fast(streams)
	}
	ratios := make([]float64, speedupPairs)
	for i := range ratios {
		m, f := measured(1), fast(1)
		if m.WallQPS <= 0 {
			t.Fatalf("pair %d: measured single-stream throughput missing", i)
		}
		ratios[i] = f.WallQPS / m.WallQPS
	}
	sort.Float64s(ratios)
	if median := ratios[speedupPairs/2]; median < fastSpeedupFloor {
		t.Errorf("fast mode median speedup %.1fx below the %.0fx floor (sorted pair ratios %.1f)",
			median, fastSpeedupFloor, ratios)
	}
}

// checkSweepPoint pins the invariants both series share.
func checkSweepPoint(t *testing.T, series string, p streamPoint) {
	t.Helper()
	if p.PlanHitRate <= 0 {
		t.Errorf("%s streams %d: plan-cache hit rate %.2f must be > 0 on the repeated workload", series, p.Streams, p.PlanHitRate)
	}
	if p.WallP95Ms < p.WallP50Ms || p.WallP99Ms < p.WallP95Ms {
		t.Errorf("%s streams %d: wall percentiles not monotone: p50=%.3f p95=%.3f p99=%.3f",
			series, p.Streams, p.WallP50Ms, p.WallP95Ms, p.WallP99Ms)
	}
	if p.QueueP95Ms < p.QueueP50Ms || p.QueueP99Ms < p.QueueP95Ms {
		t.Errorf("%s streams %d: queue percentiles not monotone: p50=%.3f p95=%.3f p99=%.3f",
			series, p.Streams, p.QueueP50Ms, p.QueueP95Ms, p.QueueP99Ms)
	}
}

// BenchmarkServerStreams measures wall queries/sec per stream count in
// both modes; -benchtime=1x gives one full workload pass.
func BenchmarkServerStreams(b *testing.B) {
	for _, streams := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			var last streamPoint
			for i := 0; i < b.N; i++ {
				last = runServerWorkload(b, streams, 6, false)
			}
			b.ReportMetric(last.WallQPS, "wall-q/s")
			b.ReportMetric(last.SimMsMean, "sim-ms/query")
			b.ReportMetric(last.PlanHitRate, "hit-rate")
		})
	}
	for _, streams := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("fast/streams=%d", streams), func(b *testing.B) {
			var last streamPoint
			for i := 0; i < b.N; i++ {
				last = runServerWorkload(b, streams, 120, true)
			}
			b.ReportMetric(last.WallQPS, "wall-q/s")
			b.ReportMetric(last.PlanHitRate, "hit-rate")
		})
	}
}
