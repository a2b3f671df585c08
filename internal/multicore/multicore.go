// Package multicore models single-socket multi-threaded execution
// (Section 10). OLAP operators scale near-linearly across cores, so a
// T-thread run is modelled as each thread executing 1/T of the
// single-core run's events while the threads share the socket's
// memory bandwidth: each thread's ceiling is
// min(per-core BW, per-socket BW / T). When aggregate demand crosses
// the socket ceiling the per-thread Dcache stalls grow — exactly how
// Typer saturates at 8 threads and Tectorwise at 12 on the projection
// query, while the join never gets near the ceiling.
package multicore

import (
	"olapmicro/internal/hw"
	"olapmicro/internal/tmam"
)

// Result describes one thread count's profile.
type Result struct {
	Threads int
	// PerThread is one thread's cycle profile (they are symmetric).
	PerThread tmam.Profile
	// SocketBandwidthGBs is the aggregate DRAM traffic rate, the
	// quantity Figures 29/30 plot.
	SocketBandwidthGBs float64
	// Speedup is single-thread time / T-thread time.
	Speedup float64
}

// Options tunes the model.
type Options struct {
	// HyperThreading applies the paper's measured 1.3x bandwidth-
	// extraction improvement from running two hyper-threads per core.
	HyperThreading bool
}

// SharedCeiling is the bandwidth ceiling of one of n cores streaming
// from m's socket at once: min(per-core BW, per-socket BW / n).
func SharedCeiling(m *hw.Machine, n int) tmam.Params {
	return tmam.Params{
		BWSeq:  min(m.PerCoreBW.Sequential, m.PerSocketBW.Sequential/float64(n)),
		BWRand: min(m.PerCoreBW.Random, m.PerSocketBW.Random/float64(n)),
	}
}

// ceiling returns one thread's inputs per with SharedCeiling for n
// busy cores. With hyper-threading, two hyper-threads per core keep
// ~1.3x more misses in flight: both the achievable bandwidth (still at
// most the per-socket share) and per's random-access overlap improve
// by the paper's measured factor.
func (o Options) ceiling(m *hw.Machine, n int, per tmam.Inputs) (tmam.Inputs, tmam.Params) {
	params := SharedCeiling(m, n)
	if o.HyperThreading {
		params.BWSeq = min(params.BWSeq*m.HyperThreadBWx, m.PerSocketBW.Sequential/float64(n))
		params.BWRand = min(params.BWRand*m.HyperThreadBWx, m.PerSocketBW.Random/float64(n))
		boost := per.RandMLPBoost
		if boost <= 0 {
			boost = 1
		}
		per.RandMLPBoost = boost * m.HyperThreadBWx
	}
	return per, params
}

// Run derives the T-thread profile from a single-core run's inputs.
func Run(in tmam.Inputs, threads int, opts Options) Result {
	m := in.Machine
	if threads < 1 {
		threads = 1
	}
	prof := tmam.AccountInputs(opts.ceiling(m, threads, in.ScaleCounts(float64(threads))))

	single := tmam.AccountInputs(in, tmam.Params{})
	speedup := 0.0
	if prof.Seconds > 0 {
		speedup = single.Seconds / prof.Seconds
	}
	return Result{
		Threads:            threads,
		PerThread:          prof,
		SocketBandwidthGBs: prof.BandwidthGBs * float64(threads),
		Speedup:            speedup,
	}
}

// Sweep runs the paper's thread counts (1, 4, 8, 12, 14).
func Sweep(in tmam.Inputs, opts Options) []Result {
	return SweepCounts(in, []int{1, 4, 8, 12, 14}, opts)
}

// SweepCounts runs the model at each of the given thread counts — the
// measured-vs-modelled scaling experiments sweep powers of two.
func SweepCounts(in tmam.Inputs, counts []int, opts Options) []Result {
	out := make([]Result, 0, len(counts))
	for _, t := range counts {
		out = append(out, Run(in, t, opts))
	}
	return out
}

// ConcurrentResult describes S concurrent streams of one query
// sharing a single socket — the multi-tenant extension of the
// Section-10 model internal/server realizes.
type ConcurrentResult struct {
	// Streams and ThreadsPerQuery describe the offered load: S
	// sequential query streams, each query executing on T workers.
	Streams, ThreadsPerQuery int
	// ActiveCores is min(S x T, pool): the cores actually streaming.
	ActiveCores int
	// PerThread is one worker's profile under the shared ceiling
	// min(per-core BW, per-socket BW / ActiveCores).
	PerThread tmam.Profile
	// QuerySeconds is one query's parallel-phase span at that ceiling.
	QuerySeconds float64
	// QueriesPerSecond is the aggregate service rate: ActiveCores
	// cores each deliver one query's worth of work every
	// ThreadsPerQuery x QuerySeconds core-seconds.
	QueriesPerSecond float64
	// SocketBandwidthGBs is the aggregate DRAM traffic rate.
	SocketBandwidthGBs float64
}

// Concurrent models S concurrent streams of the query behind a
// single-core run's inputs, each query running with threads workers
// on a pool of at most cores cores (0 means the socket's
// hyper-threaded capacity). Busy cores share the socket: each one's
// bandwidth ceiling is min(per-core BW, per-socket BW / busy), so
// aggregate throughput grows with streams until either the pool or
// the socket bandwidth saturates — the same knee the single-query
// sweeps show, relocated from thread count to stream count.
func Concurrent(in tmam.Inputs, streams, threads, cores int, opts Options) ConcurrentResult {
	m := in.Machine
	if streams < 1 {
		streams = 1
	}
	if cores < 1 {
		cores = 2 * m.CoresPerSocket
	}
	if threads < 1 {
		threads = 1
	}
	if threads > cores {
		threads = cores
	}
	busy := streams * threads
	if busy > cores {
		busy = cores
	}
	prof := tmam.AccountInputs(opts.ceiling(m, busy, in.ScaleCounts(float64(threads))))
	r := ConcurrentResult{
		Streams:            streams,
		ThreadsPerQuery:    threads,
		ActiveCores:        busy,
		PerThread:          prof,
		QuerySeconds:       prof.Seconds,
		SocketBandwidthGBs: prof.BandwidthGBs * float64(busy),
	}
	if prof.Seconds > 0 {
		// One query costs threads x QuerySeconds core-seconds; busy
		// cores supply busy core-seconds per second.
		r.QueriesPerSecond = float64(busy) / (float64(threads) * prof.Seconds)
	}
	return r
}

// ConcurrentSweep models each stream count — the ext-sql-concurrent
// experiments sweep 1..8 streams.
func ConcurrentSweep(in tmam.Inputs, streams []int, threads, cores int, opts Options) []ConcurrentResult {
	out := make([]ConcurrentResult, 0, len(streams))
	for _, s := range streams {
		out = append(out, Concurrent(in, s, threads, cores, opts))
	}
	return out
}

// SaturationThreads returns the lowest swept thread count at which the
// socket sequential bandwidth is ~saturated (>= frac of max), or -1.
func SaturationThreads(results []Result, m *hw.Machine, frac float64) int {
	limit := m.PerSocketBW.Sequential / hw.GB * frac
	for _, r := range results {
		if r.SocketBandwidthGBs >= limit {
			return r.Threads
		}
	}
	return -1
}
