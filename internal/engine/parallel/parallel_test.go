package parallel_test

import (
	"math"
	"sync"
	"testing"

	"olapmicro/internal/engine/parallel"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/hw"
	"olapmicro/internal/multicore"
	"olapmicro/internal/probe"
	"olapmicro/internal/sql"
	"olapmicro/internal/tpch"
)

// The suite shares one small database and the scaled quick machine,
// mirroring the sql cross-validation protocol (kept small so the
// race-enabled CI smoke stays fast).
var (
	ptOnce sync.Once
	ptData *tpch.Data
	ptMach *hw.Machine
)

func pt(t *testing.T) (*tpch.Data, *hw.Machine) {
	t.Helper()
	ptOnce.Do(func() {
		ptData = tpch.Generate(0.05)
		ptMach = hw.Broadwell().Scaled(8)
	})
	return ptData, ptMach
}

const (
	// scanSQL is the scan-heavy projection-shaped query the bandwidth
	// experiments use: it streams four lineitem columns flat out.
	scanSQL = `select sum(l_extendedprice + l_discount + l_tax + l_quantity) from lineitem`

	groupSQL = `select sum(l_quantity), count(*), min(l_shipdate), max(l_shipdate)
from lineitem where l_shipdate <= date '1998-09-02'
group by l_returnflag, l_linestatus`

	joinSQL = `select sum(l_quantity), count(*) from lineitem
join orders on l_orderkey = o_orderkey group by o_custkey`
)

// run executes one query at one thread count on one engine.
func run(t *testing.T, engName, query string, threads int) *parallel.Result {
	t.Helper()
	d, m := pt(t)
	c, err := sql.Compile(d, m, query, sql.Options{Engine: engName})
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	r, err := parallel.Run(parallel.Scan{
		Machine: m, Pipeline: c.Pipeline, Prepare: c.Prepare,
		Threads: threads,
	}, relop.Dedicated)
	if err != nil {
		t.Fatalf("parallel run x%d: %v", threads, err)
	}
	return r
}

// Determinism: Sum, Rows and Check must be identical at every thread
// count, on both engines, for scalar, grouped and joined pipelines —
// the thread-local merge is associative and order-insensitive.
func TestResultIdenticalAcrossThreadCounts(t *testing.T) {
	for _, engName := range []string{"typer", "tectorwise"} {
		for _, query := range []string{scanSQL, groupSQL, joinSQL} {
			base := run(t, engName, query, 1)
			if base.Result.Rows == 0 {
				t.Fatalf("%s: empty result", engName)
			}
			for _, threads := range []int{2, 8} {
				r := run(t, engName, query, threads)
				if !r.Result.Equal(base.Result) {
					t.Errorf("%s x%d on %q: %v != single-thread %v",
						engName, threads, query, r.Result, base.Result)
				}
				if r.Threads != threads || r.Morsels < threads {
					t.Errorf("%s x%d: ran %d morsels on %d workers; expected a real fan-out",
						engName, threads, r.Morsels, r.Threads)
				}
			}
		}
	}
}

// Speedup must grow monotonically with the worker count until the
// socket bandwidth saturates, and stall once it has.
func TestSpeedupMonotonicUpToSaturation(t *testing.T) {
	_, m := pt(t)
	for _, engName := range []string{"typer", "tectorwise"} {
		limit := m.PerSocketBW.Sequential / hw.GB * 0.95
		prev := 0.0
		saturated := false
		for _, threads := range []int{1, 2, 4, 8} {
			r := run(t, engName, scanSQL, threads)
			if saturated {
				// Past saturation more workers cannot add bandwidth;
				// allow jitter but no further scaling.
				if r.Speedup > prev*1.25 {
					t.Errorf("%s x%d: speedup %.2f kept scaling past socket saturation (prev %.2f)",
						engName, threads, r.Speedup, prev)
				}
				continue
			}
			if r.Speedup < prev*0.98 {
				t.Errorf("%s x%d: speedup %.2f regressed below x%0.f's %.2f before saturation",
					engName, threads, r.Speedup, float64(threads/2), prev)
			}
			prev = r.Speedup
			saturated = r.SocketBandwidthGBs >= limit
		}
		if prev < 1.5 {
			t.Errorf("%s: best pre-saturation speedup %.2f; parallel execution is not scaling", engName, prev)
		}
	}
}

// The measured socket bandwidth must agree with the analytical
// multicore model re-accounting the same run's combined counters —
// the cross-validation the Section-10 experiments rely on.
func TestMeasuredBandwidthMatchesMulticoreModel(t *testing.T) {
	for _, engName := range []string{"typer", "tectorwise"} {
		single := run(t, engName, scanSQL, 1)
		for _, threads := range []int{2, 8} {
			measured := run(t, engName, scanSQL, threads)
			modelled := multicore.Run(single.Inputs, threads, multicore.Options{})
			rel := math.Abs(measured.SocketBandwidthGBs-modelled.SocketBandwidthGBs) /
				modelled.SocketBandwidthGBs
			if rel > 0.20 {
				t.Errorf("%s x%d: measured socket bandwidth %.1f GB/s vs modelled %.1f GB/s (%.0f%% apart)",
					engName, threads, measured.SocketBandwidthGBs, modelled.SocketBandwidthGBs, 100*rel)
			}
		}
	}
}

// The per-thread ceiling must be the shared-socket share: a worker's
// profile cannot report more sequential bandwidth than
// min(per-core, per-socket/T).
func TestWorkerBandwidthUnderSharedCeiling(t *testing.T) {
	_, m := pt(t)
	threads := 8
	r := run(t, "typer", scanSQL, threads)
	ceiling := math.Min(m.PerCoreBW.Sequential, m.PerSocketBW.Sequential/float64(threads)) / hw.GB
	for i, w := range r.Workers {
		if w.BandwidthGBs > ceiling*1.05 {
			t.Errorf("worker %d: %.1f GB/s exceeds the shared ceiling %.1f GB/s", i, w.BandwidthGBs, ceiling)
		}
	}
	if len(r.Workers) != threads {
		t.Fatalf("expected %d worker profiles, got %d", threads, len(r.Workers))
	}
}

// panicPrepared is a relop.Prepared whose workers panic on their
// first morsel.
type panicPrepared struct{}

func (panicPrepared) Rows() int        { return 4 * relop.DefaultMorselRows }
func (panicPrepared) MorselAlign() int { return 1 }
func (panicPrepared) NewWorker(*probe.Probe, *probe.AddrSpace) relop.Worker {
	return panicWorker{}
}

type panicWorker struct{}

func (panicWorker) RunMorsel(start, end int) { panic("morsel boom") }
func (panicWorker) Partial() *relop.Partial  { return &relop.Partial{} }

// A worker panic must re-surface on the goroutine that called Run —
// where a recover barrier can convert it — not kill the process from a
// worker frame.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	_, m := pt(t)
	defer func() {
		if r := recover(); r != "morsel boom" {
			t.Errorf("recovered %v on the caller, want the worker's panic", r)
		}
	}()
	_, err := parallel.Run(parallel.Scan{
		Machine: m,
		Prepare: func(*probe.Probe, *probe.AddrSpace) (relop.Prepared, error) { return panicPrepared{}, nil },
		Threads: 2,
	}, relop.Dedicated)
	t.Errorf("Run returned (err %v) past a panicking worker", err)
}
