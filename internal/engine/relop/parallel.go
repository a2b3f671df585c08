package relop

import (
	"encoding/binary"
	"sync"

	"olapmicro/internal/join"
	"olapmicro/internal/probe"
)

// Prepared is a pipeline bound to one engine with its hash-join build
// phase already executed: a read-only plan fragment any number of
// workers can probe concurrently, each through its own probe. This is
// the engine-side half of morsel-driven parallelism (Section 10):
// builds happen once, probes and aggregation fan out over the driver.
type Prepared interface {
	// Rows is the driver-table row count workers partition.
	Rows() int
	// MorselAlign is the row alignment morsel boundaries must respect:
	// the vectorized engine's vector size, 1 for the compiled engine.
	MorselAlign() int
	// NewWorker creates one worker's private execution state
	// (aggregation tables, scratch vectors) charging setup against the
	// worker's own probe. Call it once per worker, from a single
	// goroutine, before dispatching morsels.
	NewWorker(p *probe.Probe, as *probe.AddrSpace) Worker
}

// Worker executes morsels of the driver table. A worker is owned by
// one goroutine; distinct workers never share mutable state.
type Worker interface {
	// RunMorsel executes driver rows [start, end).
	RunMorsel(start, end int)
	// Partial returns the worker's accumulated aggregation state.
	Partial() *Partial
}

// Morsel is one contiguous slice of the driver table's rows.
type Morsel struct {
	Start, End int
}

// DefaultMorselRows keeps a morsel's per-column footprint around
// 128 KB of 8-byte values: big enough to amortize per-morsel setup,
// small enough that the interleave stays balanced.
const DefaultMorselRows = 16384

// Morsels partitions rows into morsels of roughly DefaultMorselRows
// rows for threads >= 1 workers. Boundaries land on align-multiples
// (align >= 1) so every worker's chunks coincide with the serial
// execution's, the morsel count is rounded up to a multiple of threads
// so the even split has no remainder, and sizes are interleaved within
// one align unit of each other — the simulated cores are symmetric, so
// balance, not stealing, determines the parallel phase's span. A driver
// with fewer align-units than that rounded count gets one morsel per
// unit instead (some workers then stay idle).
func Morsels(rows, align, threads int) []Morsel {
	if rows <= 0 {
		return nil
	}
	units := (rows + align - 1) / align
	count := (rows + DefaultMorselRows - 1) / DefaultMorselRows
	count = (count + threads - 1) / threads * threads
	if count > units {
		count = units
	}
	out := make([]Morsel, 0, count)
	start := 0
	for i := 0; i < count; i++ {
		// Bresenham split: morsel i spans units (i*units/count,
		// (i+1)*units/count], spreading the remainder evenly.
		end := (i + 1) * units / count * align
		if end > rows {
			end = rows
		}
		out = append(out, Morsel{Start: start, End: end})
		start = end
	}
	return out
}

// Strided is the one worker fleet every scan runs on, measured or
// fast: worker t of threads visits morsels t, t+T, t+2T, ... in order,
// handing each to step, and Strided returns when every worker has. A
// false return from step stops that worker — the hook the server uses
// for cancellation, deadlines and per-query abort; the others run on
// until their own step says otherwise. One worker runs inline on the
// caller's goroutine; more run one goroutine each. A worker panic must
// surface on the caller's goroutine, not kill the process from a frame
// nothing can recover: the first one is captured and re-panicked after
// the fleet drains, where the caller's own recover barrier (the
// server's execute frame, a test harness) can convert it into a
// per-query error.
func Strided(threads int, morsels []Morsel, step func(t int, m Morsel) bool) {
	visit := func(t int) {
		for i := t; i < len(morsels); i += threads {
			if !step(t, morsels[i]) {
				return
			}
		}
	}
	if threads == 1 {
		visit(0)
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	wg.Add(threads)
	for t := 0; t < threads; t++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			visit(t)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Dedicated is the scan step of a run that owns its workers end to
// end: every worker runs its morsels back to back until the scan
// drains.
func Dedicated(workers []Worker, morsels []Morsel) error {
	Strided(len(workers), morsels, func(t int, m Morsel) bool {
		workers[t].RunMorsel(m.Start, m.End)
		return true
	})
	return nil
}

// BuildState is one join's shared, read-only build result: the hash
// table, the slot-to-build-row map, and the build-side payload columns
// loaded per match. Both engines' prepare phases produce it; workers
// probe it concurrently.
type BuildState struct {
	HT    *join.Table
	RowOf []int32 // hash slot -> build-table row (filters skip rows)
	// Payload columns of the build table read downstream of the join.
	Payload []Col
}

// AggState is the thread-local aggregation state both engines' workers
// carry: a private group table sized from the planner estimate (or the
// scalar accumulators), merged with the other workers' after the scan.
type AggState struct {
	Grouped bool
	Grp     *GroupTable
	Acc     [][]int64 // [agg][slot]
	AggR    probe.Region
	Stride  uint64
	Est     uint64
	Scalar  []int64
	Matched int64
	KeyVals []int64
}

// NewAggState builds one worker's aggregation state for a pipeline,
// carving the group table and aggregate-row region (named name and
// aggName) from the worker's address space.
func NewAggState(pl *Pipeline, as *probe.AddrSpace, name, aggName string) *AggState {
	s := &AggState{
		Grouped: len(pl.GroupBy) > 0,
		Scalar:  make([]int64, len(pl.Aggs)),
		KeyVals: make([]int64, len(pl.GroupBy)),
	}
	if s.Grouped {
		g := pl.EstGroups
		if g <= 0 {
			g = pl.Tables[0].Rows/2 + 1
		}
		s.Est = uint64(g)
		s.Grp = NewGroupTable(as, name, g)
		s.Acc = make([][]int64, len(pl.Aggs))
		s.Stride = uint64(len(pl.Aggs)) * 8
		s.AggR = as.Alloc(aggName, s.Est*s.Stride)
	}
	return s
}

// Partial returns the state in the form FinalizeProbed combines.
func (s *AggState) Partial() *Partial {
	if s.Grouped {
		return &Partial{Tuples: s.Grp.Tuples(), Aggs: s.Acc, Matched: s.Matched}
	}
	return &Partial{Scalar: s.Scalar, Matched: s.Matched}
}

// Partial is the thread-local aggregation state one worker produced
// over its morsels, in a form FinalizeProbed can combine.
type Partial struct {
	// Grouped state: group key tuples in insertion order plus the
	// aggregate values, indexed [agg][group].
	Tuples [][]int64
	Aggs   [][]int64
	// Scalar state: one value per aggregate, valid when Matched > 0.
	Scalar  []int64
	Matched int64
}

// tupleKey encodes a group key tuple for exact map lookup (the mixed
// GroupKey hash only buckets; merging needs full-tuple identity).
func tupleKey(t []int64) string {
	b := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return string(b)
}

// merge combines a partial aggregate value into dst[i]. first marks
// the group's first contribution (min/max need a seed, sum/count
// accumulate from zero).
func (a Agg) merge(dst []int64, i int, v int64, first bool) {
	switch a.Kind {
	case AggSum, AggCount:
		dst[i] += v
	case AggMin:
		if first || v < dst[i] {
			dst[i] = v
		}
	case AggMax:
		if first || v > dst[i] {
			dst[i] = v
		}
	}
}
