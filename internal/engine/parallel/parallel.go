// Package parallel is the morsel-driven multi-core coordinator for
// ad-hoc relop pipelines (Section 10). The driver table is cut into
// cache-friendly morsels dispatched across N worker goroutines;
// hash-join builds run once and are probed concurrently, and
// aggregation uses thread-local group tables merged at the end, so the
// result is bit-identical at every thread count. Each worker carries
// its own probe — its own simulated core — and the workers' counter
// snapshots are accounted under the shared-socket bandwidth ceiling
// min(per-core BW, per-socket BW / T): the same ceiling the analytical
// internal/multicore model applies to scaled single-core counters.
// Running both against the same query cross-validates the model with
// real parallel execution — Typer saturating the socket before
// Tectorwise on scan-heavy queries, as Figures 29/30 show.
package parallel

import (
	"olapmicro/internal/engine"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/multicore"
	"olapmicro/internal/obs"
	"olapmicro/internal/probe"
	"olapmicro/internal/tmam"
)

// WorkerWindow is the simulated address-space window each worker's
// private structures are carved from — 64 GB of free simulated
// addresses, far past any group table a planner estimate can size.
const WorkerWindow = 1 << 36

// Scan describes one measured engine scan for Run: everything but the
// scan step itself, which Run takes from its caller. Every scan is
// measured — the build phase and every worker carry a probe, a
// simulated core — because a profile is the only reason to run the
// engines; fast mode's answers come from relop.FastPlan.
type Scan struct {
	Machine  *hw.Machine
	Pipeline *relop.Pipeline
	// Prepare instantiates the engine against as and runs the pipeline's
	// build phase on p, returning the read-only fragment the workers
	// probe (sql.Compiled.Prepare, or an engine's PreparePipeline).
	Prepare func(p *probe.Probe, as *probe.AddrSpace) (relop.Prepared, error)
	// Threads is the worker count, clamped to [1, 2 x cores-per-socket]
	// (see ClampThreads) and to the morsel count.
	Threads int
	// Trace, when non-nil, receives the "build" and "finalize" phase
	// spans as children.
	Trace *obs.Span
}

// Result is one morsel-driven execution.
type Result struct {
	Threads int
	Morsels int
	// Result is the merged query answer, identical at every thread
	// count.
	Result engine.Result
	// PerThread is the slowest worker's profile accounted under the
	// shared-socket bandwidth ceiling; it bounds the parallel phase.
	PerThread tmam.Profile
	// Workers holds every worker's profile under the shared ceiling.
	Workers []tmam.Profile
	// Build is the serial build/prepare phase's profile (joins only).
	Build tmam.Profile
	// Single is the single-core-equivalent profile: the summed worker
	// (plus build) counters accounted at full per-core bandwidth —
	// what one core executing every morsel would have measured.
	Single tmam.Profile
	// Inputs is the summed counter snapshot behind Single; feed it to
	// multicore.Run to model other thread counts from this run.
	Inputs tmam.Inputs
	// Seconds is the wall-clock estimate: serial build plus the
	// slowest worker.
	Seconds float64
	// SocketBandwidthGBs is the aggregate DRAM traffic rate, the
	// quantity Figures 29/30 plot.
	SocketBandwidthGBs float64
	// Speedup is Single.Seconds / Seconds.
	Speedup float64
}

// ClampThreads bounds a requested worker count to [1, 2 x
// cores-per-socket] — the single-socket hyper-threaded capacity the
// Section-10 model covers. A worker is a whole simulated core, so
// counts past that model nothing and a typo'd count would allocate
// millions of cache simulators. Anything that models or executes at a
// thread count (compilation-time predictions included) must clamp the
// same way, or predictions would describe runs that never happen.
func ClampThreads(m *hw.Machine, threads int) int {
	if threads < 1 {
		return 1
	}
	if cap := 2 * m.CoresPerSocket; threads > cap {
		return cap
	}
	return threads
}

// Run is the morsel driver every engine scan goes through: the build
// phase once, serially, on the run's own probe; the driver table cut
// into relop.Morsels; one worker per thread, each with a private probe
// and a WorkerWindow-sized address-space fork; the scan step, which is
// the caller's — relop.Dedicated for a run that owns its goroutines,
// internal/server's slot-capped step for one that shares the machine
// with other queries (both on the relop.Strided fleet); then the
// thread-local partials merged and the post-aggregation operators
// (HAVING, sort, top-k) run on the coordinator, charged to the build
// probe so they count toward the serial span, not any worker's.
// Because the partition and the worker shape never depend on who
// scans, a query's result and profile are identical however its
// morsels were interleaved with other queries'.
//
// scan must run workers[t] over morsels t, t+T, t+2T, ... for
// T = len(workers) and return once every worker is quiescent. The
// assignment is strided and deterministic: claiming from a shared
// queue in host time would let a faster-scheduled goroutine drain it
// and inflate its simulated core's profile; simulated cores are
// homogeneous, so dynamic morsel stealing converges to this even
// interleave anyway, and the fixed assignment keeps every worker's
// profile reproducible regardless of how the host schedules the scan.
func Run(s Scan, scan func(workers []relop.Worker, morsels []relop.Morsel) error) (*Result, error) {
	threads := ClampThreads(s.Machine, s.Threads)
	end := s.phase("build")
	as := probe.NewAddrSpace()
	buildProbe := probe.New(s.Machine, mem.AllPrefetchers())
	prep, err := s.Prepare(buildProbe, as)
	end()
	if err != nil {
		return nil, err
	}
	morsels := relop.Morsels(prep.Rows(), prep.MorselAlign(), threads)
	// The thread count clamps to the morsel count: a driver smaller than
	// the worker fleet leaves workers idle, and idle workers must not
	// count toward the shared-bandwidth divisor ("with T cores
	// streaming" means cores that actually stream) or depress the busy
	// workers' ceiling.
	if len(morsels) > 0 && threads > len(morsels) {
		threads = len(morsels)
	}
	probes := make([]*probe.Probe, threads)
	workers := make([]relop.Worker, threads)
	for t := range workers {
		probes[t] = probe.New(s.Machine, mem.AllPrefetchers())
		workers[t] = prep.NewWorker(probes[t], as.Fork("worker", WorkerWindow))
	}

	if err := scan(workers, morsels); err != nil {
		return nil, err
	}

	defer s.phase("finalize")()
	partials := make([]*relop.Partial, threads)
	for t, w := range workers {
		partials[t] = w.Partial()
	}
	merged := relop.FinalizeProbed(buildProbe, s.Pipeline, partials)
	return assemble(s.Machine, buildProbe, probes, merged, len(morsels)), nil
}

// phase opens a child span of the scan's trace, if it has one, and
// returns the function that closes it.
func (s Scan) phase(name string) func() {
	if s.Trace == nil {
		return func() {}
	}
	return s.Trace.Child(name).End
}

// assemble accounts one completed measured run from its probes: the
// build probe's serial span (which must already include the finalize
// work) plus every worker probe under the shared-socket ceiling — with
// T cores streaming, each one gets at most per-socket/T.
func assemble(m *hw.Machine, buildProbe *probe.Probe, probes []*probe.Probe, merged engine.Result, morsels int) *Result {
	threads := len(probes)
	params := multicore.SharedCeiling(m, threads)
	buildIn := tmam.InputsFrom(buildProbe)
	buildProf := tmam.AccountInputs(buildIn, tmam.Params{})
	total := buildIn
	res := &Result{
		Threads: threads,
		Morsels: morsels,
		Result:  merged,
		Build:   buildProf,
	}
	wall := 0.0
	for t := range probes {
		in := tmam.InputsFrom(probes[t])
		prof := tmam.AccountInputs(in, params)
		res.Workers = append(res.Workers, prof)
		if prof.Seconds >= wall {
			wall = prof.Seconds
			res.PerThread = prof
		}
		total = total.Add(in)
	}
	res.Inputs = total
	res.Single = tmam.AccountInputs(total, tmam.Params{})
	res.Seconds = buildProf.Seconds + wall
	if res.Seconds > 0 {
		res.SocketBandwidthGBs = float64(total.MemStats.TotalBytes()) / res.Seconds / hw.GB
		res.Speedup = res.Single.Seconds / res.Seconds
	}
	return res
}

// Profile is the run's statement-level profile: the slowest worker's
// shared-ceiling profile, its Seconds widened to the whole simulated
// span (serial build + parallel scan + serial finalize), with the
// socket's aggregate bandwidth and the single-core-equivalent
// instruction count.
func (r *Result) Profile() tmam.Profile {
	prof := r.PerThread
	prof.Seconds = r.Seconds
	prof.BandwidthGBs = r.SocketBandwidthGBs
	prof.Instructions = r.Single.Instructions
	return prof
}
