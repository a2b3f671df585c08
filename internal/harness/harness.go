// Package harness runs the paper's experiments: it generates the
// database, instantiates the four engines, profiles every workload on
// the simulated machines, and renders each figure's data as the same
// rows/series the paper plots. cmd/olapsim exposes every experiment on
// the command line; bench_test.go exposes each as a benchmark.
package harness

import (
	"fmt"
	"os"
	"strconv"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/colstore"
	"olapmicro/internal/engine/rowstore"
	"olapmicro/internal/engine/tectorwise"
	"olapmicro/internal/engine/typer"
	"olapmicro/internal/hw"
	"olapmicro/internal/join"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tmam"
	"olapmicro/internal/tpch"
)

// System identifies one of the four profiled OLAP systems.
type System int

const (
	// DBMSR is the traditional commercial row-store.
	DBMSR System = iota
	// DBMSC is its column-store extension.
	DBMSC
	// Typer is the compiled-execution engine.
	Typer
	// Tectorwise is the vectorized engine.
	Tectorwise
)

// String names the system as in the figures.
func (s System) String() string {
	switch s {
	case DBMSR:
		return "DBMS R"
	case DBMSC:
		return "DBMS C"
	case Typer:
		return "Typer"
	case Tectorwise:
		return "Tectorwise"
	}
	return "?"
}

// AllSystems lists the four systems in figure order.
func AllSystems() []System { return []System{DBMSR, DBMSC, Typer, Tectorwise} }

// HighPerf lists the two high-performance engines.
func HighPerf() []System { return []System{Typer, Tectorwise} }

// Config selects the machines and database scale.
type Config struct {
	// Machine is the main (Broadwell) server model.
	Machine *hw.Machine
	// Skylake is the AVX-512 server used by the SIMD experiments.
	Skylake *hw.Machine
	// SF is the TPC-H scale factor. The figures' metrics are ratios
	// that stabilize once working sets exceed the LLC; SF 1 with the
	// real cache sizes, or a small SF with Machine.Scaled caches,
	// both satisfy that.
	SF float64
}

// DefaultConfig is the full-fidelity setup: exact Table-1 machines and
// SF 2, large enough that every hash table of the join/group-by
// workloads exceeds the 35 MB LLC like the paper's SF-5 database does
// (override with OLAPSIM_SF).
func DefaultConfig() Config {
	sf := 2.0
	if v := os.Getenv("OLAPSIM_SF"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			sf = f
		}
	}
	return Config{Machine: hw.Broadwell(), Skylake: hw.Skylake(), SF: sf}
}

// QuickConfig is the miniaturized setup used by tests: caches scaled
// by 1/8 and SF 0.25, preserving every working-set-to-cache ratio of
// DefaultConfig at 1/8 of the simulation cost.
func QuickConfig() Config {
	return Config{
		Machine: hw.Broadwell().Scaled(8),
		Skylake: hw.Skylake().Scaled(8),
		SF:      0.25,
	}
}

// Series is one measured bar/line of a figure.
type Series struct {
	System  System
	Label   string
	Profile tmam.Profile
	Result  engine.Result
	// Inputs is the raw counter snapshot; the multi-core experiments
	// re-account it under shared-bandwidth ceilings.
	Inputs tmam.Inputs
}

// Harness owns the generated database and memoized measurements.
type Harness struct {
	Cfg  Config
	Data *tpch.Data

	cuts map[int]engine.SelectionCutoffs
	// dates holds lineitem's ship, commit and receipt dates sorted, on
	// the first Cutoffs call: every selectivity indexes the same copies.
	dates [3]*storage.Ints
	cache map[string]Series
}

// New generates the database. Predicate cutoffs are computed on first
// use (see Cutoffs): a process that never runs the selection
// micro-benchmark — the query server — never sorts for them.
func New(cfg Config) *Harness {
	return &Harness{
		Cfg:   cfg,
		Data:  tpch.Generate(cfg.SF),
		cuts:  make(map[int]engine.SelectionCutoffs),
		cache: make(map[string]Series),
	}
}

func permil(s float64) int { return int(s*1000 + 0.5) }

// Cutoffs returns the per-predicate cutoffs for a selectivity,
// memoized per permille.
func (h *Harness) Cutoffs(s float64) engine.SelectionCutoffs {
	if c, ok := h.cuts[permil(s)]; ok {
		return c
	}
	if h.dates[0] == nil {
		l := &h.Data.Lineitem
		h.dates = [3]*storage.Ints{tpch.SortedCopy(&l.ShipDate), tpch.SortedCopy(&l.CommitDate), tpch.SortedCopy(&l.ReceiptDate)}
	}
	c := engine.SelectionCutoffs{
		Selectivity: s,
		ShipDate:    tpch.QuantileSorted(h.dates[0], s),
		CommitDate:  tpch.QuantileSorted(h.dates[1], s),
		ReceiptDate: tpch.QuantileSorted(h.dates[2], s),
	}
	h.cuts[permil(s)] = c
	return c
}

// Opts tunes one measurement.
type Opts struct {
	// Machine overrides the config's main machine (SIMD experiments
	// pass the Skylake model).
	Machine *hw.Machine
	// Prefetchers overrides the default all-enabled configuration.
	Prefetchers *mem.PrefetcherConfig
	// SIMD runs Tectorwise with AVX-512 primitives.
	SIMD bool
}

func (o Opts) machine(h *Harness) *hw.Machine {
	if o.Machine != nil {
		return o.Machine
	}
	return h.Cfg.Machine
}

func (o Opts) prefetchers() mem.PrefetcherConfig {
	if o.Prefetchers != nil {
		return *o.Prefetchers
	}
	return mem.AllPrefetchers()
}

func (o Opts) key() string {
	return fmt.Sprintf("m=%v pf=%v simd=%v", o.Machine != nil, o.prefetchers(), o.SIMD)
}

// measure runs f on a fresh engine/probe and accounts the result.
func (h *Harness) measure(sys System, label string, o Opts,
	f func(p *probe.Probe, as *probe.AddrSpace, e system) engine.Result) Series {

	key := fmt.Sprintf("%v|%s|%s", sys, label, o.key())
	if s, ok := h.cache[key]; ok {
		return s
	}
	m := o.machine(h)
	as := probe.NewAddrSpace()
	p := probe.New(m, o.prefetchers())
	res := f(p, as, h.newSystem(sys, m, as, o.SIMD))
	prof := tmam.Account(p, tmam.Params{})
	s := Series{
		System:  sys,
		Label:   label,
		Profile: prof,
		Result:  res,
		Inputs:  tmam.InputsFrom(p),
	}
	h.cache[key] = s
	return s
}

// system is the call surface all four engines share: the
// micro-benchmarks.
type system interface {
	Name() string
	Projection(p *probe.Probe, degree int) engine.Result
	Selection(p *probe.Probe, cut engine.SelectionCutoffs, predicated bool) engine.Result
	Join(p *probe.Probe, as *probe.AddrSpace, size engine.JoinSize) engine.Result
}

// highPerf is what the two high-performance engines add: the TPC-H
// queries, their ordered-output twins and the group-by
// micro-benchmark.
type highPerf interface {
	system
	Q1(p *probe.Probe, as *probe.AddrSpace) engine.Result
	Q6(p *probe.Probe, predicated bool) engine.Result
	Q9(p *probe.Probe, as *probe.AddrSpace) engine.Result
	Q18(p *probe.Probe, as *probe.AddrSpace) engine.Result
	Q3(p *probe.Probe, as *probe.AddrSpace) engine.Result
	Q18Top(p *probe.Probe, as *probe.AddrSpace) engine.Result
	GroupBy(p *probe.Probe, as *probe.AddrSpace) (engine.Result, *join.Table)
}

// newSystem instantiates sys's engine against as; simd runs Tectorwise
// with AVX-512 primitives.
func (h *Harness) newSystem(sys System, m *hw.Machine, as *probe.AddrSpace, simd bool) system {
	switch sys {
	case DBMSR:
		return rowstore.New(h.Data, as)
	case DBMSC:
		return colstore.New(h.Data, as)
	case Typer:
		return typer.New(h.Data, as)
	}
	var opts []tectorwise.Option
	if simd {
		opts = append(opts, tectorwise.WithSIMD())
	}
	return tectorwise.New(h.Data, as, m.L1D.SizeBytes, m.SIMDLanes64, opts...)
}

// MeasureProjection profiles the projection micro-benchmark.
func (h *Harness) MeasureProjection(sys System, degree int, o Opts) Series {
	return h.measure(sys, fmt.Sprintf("p%d", degree), o,
		func(p *probe.Probe, _ *probe.AddrSpace, e system) engine.Result {
			return e.Projection(p, degree)
		})
}

// MeasureSelection profiles the selection micro-benchmark.
func (h *Harness) MeasureSelection(sys System, sel float64, predicated bool, o Opts) Series {
	label := fmt.Sprintf("%.0f%%", sel*100)
	if predicated {
		label += " brfree"
	}
	cut := h.Cutoffs(sel)
	return h.measure(sys, label, o,
		func(p *probe.Probe, _ *probe.AddrSpace, e system) engine.Result {
			return e.Selection(p, cut, predicated)
		})
}

// MeasureJoin profiles a join micro-benchmark.
func (h *Harness) MeasureJoin(sys System, size engine.JoinSize, o Opts) Series {
	return h.measure(sys, size.String(), o,
		func(p *probe.Probe, as *probe.AddrSpace, e system) engine.Result {
			return e.Join(p, as, size)
		})
}

// MeasureTopQuery profiles one of the ordered-output hardcoded twins
// — "Q3" or "Q18Top" — on a high-performance engine, through the same
// cached measurement path as every other hardcoded workload.
func (h *Harness) MeasureTopQuery(sys System, name string, o Opts) Series {
	return h.measure(sys, name, o,
		func(p *probe.Probe, as *probe.AddrSpace, e system) engine.Result {
			hp := e.(highPerf)
			if name == "Q3" {
				return hp.Q3(p, as)
			}
			return hp.Q18Top(p, as)
		})
}

// MeasureTPCH profiles one of Q1/Q6/Q9/Q18 on a high-performance
// engine (the paper omits the commercial systems for TPC-H).
func (h *Harness) MeasureTPCH(sys System, q engine.TPCHQuery, predicated bool, o Opts) Series {
	label := q.String()
	if predicated {
		label += " brfree"
	}
	return h.measure(sys, label, o,
		func(p *probe.Probe, as *probe.AddrSpace, e system) engine.Result {
			hp := e.(highPerf)
			switch q {
			case engine.Q1:
				return hp.Q1(p, as)
			case engine.Q6:
				return hp.Q6(p, predicated)
			case engine.Q9:
				return hp.Q9(p, as)
			default:
				return hp.Q18(p, as)
			}
		})
}

// MeasureJoinProbeOnly profiles just the probe phase of the large join
// on Tectorwise (the Section 8.2 SIMD comparison). A second engine,
// constructed after the measured one on the same address space, builds
// and probes the table.
func (h *Harness) MeasureJoinProbeOnly(o Opts) Series {
	return h.measure(Tectorwise, "probe", o,
		func(p *probe.Probe, as *probe.AddrSpace, _ system) engine.Result {
			e := h.newSystem(Tectorwise, o.machine(h), as, o.SIMD).(*tectorwise.Engine)
			return e.JoinProbeOnly(p, e.BuildLargeJoinTable(as))
		})
}
