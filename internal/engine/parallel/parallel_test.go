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
		Threads: threads, Name: "parallel.worker",
	}, parallel.Dedicated)
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

func TestMorselsPartition(t *testing.T) {
	cases := []struct {
		rows, target, align, threads int
	}{
		{1_499_451, 16384, 1, 16},
		{1_499_451, 16384, 1024, 16},
		{100, 16384, 1024, 8},
		{0, 16384, 1, 4},
		{7, 3, 1, 2},
	}
	for _, tc := range cases {
		ms := parallel.Morsels(tc.rows, tc.target, tc.align, tc.threads)
		covered := 0
		for i, mo := range ms {
			if mo.Start != covered || mo.End <= mo.Start {
				t.Fatalf("%+v: morsel %d [%d,%d) does not tile from %d", tc, i, mo.Start, mo.End, covered)
			}
			if mo.Start%tc.align != 0 {
				t.Errorf("%+v: morsel %d starts off-alignment at %d", tc, i, mo.Start)
			}
			covered = mo.End
		}
		if covered != tc.rows {
			t.Fatalf("%+v: morsels cover %d of %d rows", tc, covered, tc.rows)
		}
		if tc.rows > tc.align*tc.threads && len(ms)%tc.threads != 0 {
			t.Errorf("%+v: %d morsels do not split evenly over %d workers", tc, len(ms), tc.threads)
		}
	}
}

// panicPrepared is a relop.Prepared whose workers panic on their
// first morsel.
type panicPrepared struct{}

func (panicPrepared) Rows() int        { return 4 * parallel.DefaultMorselRows }
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
		Threads: 2, Name: "panic.worker",
	}, parallel.Dedicated)
	t.Errorf("Run returned (err %v) past a panicking worker", err)
}

// Strided is the one partition every scan shares: each morsel is
// visited exactly once, by worker i mod T, in ascending order per
// worker — for morsel counts below, equal to and above the worker
// count — and a false return from the step stops that worker alone.
func TestStridedVisitsEachMorselOnceOnItsWorker(t *testing.T) {
	for _, threads := range []int{1, 2, 3} {
		for _, count := range []int{0, threads - 1, threads, threads + 1, 3*threads + 2} {
			if count < 0 {
				continue
			}
			morsels := make([]parallel.Morsel, count)
			for i := range morsels {
				morsels[i] = parallel.Morsel{Start: i * 10, End: i*10 + 10}
			}
			// seen[w] is written by worker w's goroutine only.
			seen := make([][]int, threads)
			parallel.Strided(threads, morsels, func(w int, m parallel.Morsel) bool {
				seen[w] = append(seen[w], m.Start/10)
				return true
			})
			visits := make([]int, count)
			for w, idx := range seen {
				for k, i := range idx {
					visits[i]++
					if i != w+k*threads {
						t.Errorf("T=%d n=%d: worker %d's visit %d was morsel %d, want %d", threads, count, w, k, i, w+k*threads)
					}
				}
			}
			for i, n := range visits {
				if n != 1 {
					t.Errorf("T=%d n=%d: morsel %d visited %d times", threads, count, i, n)
				}
			}
		}
	}

	morsels := make([]parallel.Morsel, 9)
	ran := make([]int, 3)
	parallel.Strided(3, morsels, func(w int, _ parallel.Morsel) bool {
		ran[w]++
		return w != 1 // worker 1 gives up after its first morsel
	})
	if ran[0] != 3 || ran[1] != 1 || ran[2] != 3 {
		t.Errorf("morsels run per worker = %v, want [3 1 3]", ran)
	}
}
