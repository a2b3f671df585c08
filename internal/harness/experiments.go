package harness

import (
	"fmt"

	"olapmicro/internal/engine"
	"olapmicro/internal/engine/typer"
	"olapmicro/internal/join"
	"olapmicro/internal/mem"
	"olapmicro/internal/mlc"
	"olapmicro/internal/multicore"
	"olapmicro/internal/probe"
)

// Experiment is a named, runnable reproduction of one paper figure,
// table, or in-text claim.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness) Figure
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Broadwell server parameters via MLC kernels", Table1},
		{"fig1", "CPU cycles breakdown, projection, DBMS R/C", Fig1},
		{"fig2", "Stall cycles breakdown, projection, DBMS R/C", Fig2},
		{"fig3", "CPU cycles breakdown, projection, Typer/Tectorwise", Fig3},
		{"fig4", "Stall cycles breakdown, projection, Typer/Tectorwise", Fig4},
		{"fig5", "Single-core sequential bandwidth, projection", Fig5},
		{"fig6", "Normalized response time, projection p4, all systems", Fig6},
		{"fig7", "CPU cycles breakdown, selection, DBMS R/C", Fig7},
		{"fig8", "Stall cycles breakdown, selection, DBMS R/C", Fig8},
		{"fig9", "CPU cycles breakdown, selection, Typer/Tectorwise", Fig9},
		{"fig10", "Stall cycles breakdown, selection, Typer/Tectorwise", Fig10},
		{"fig11", "CPU cycles breakdown, join, DBMS R/C", Fig11},
		{"fig12", "CPU cycles breakdown, join, Typer/Tectorwise", Fig12},
		{"fig13", "Stall cycles breakdown, join, Typer/Tectorwise", Fig13},
		{"fig14", "Large join: random bandwidth + normalized response time", Fig14},
		{"fig15", "CPU cycles breakdown, TPC-H, Typer/Tectorwise", Fig15},
		{"fig16", "Stall cycles breakdown, TPC-H, Typer/Tectorwise", Fig16},
		{"fig17", "Predication response time, Typer", Fig17},
		{"fig18", "Predication stall time, Typer", Fig18},
		{"fig19", "Predication response time, Tectorwise", Fig19},
		{"fig20", "Predication stall time, Tectorwise", Fig20},
		{"fig21", "Predicated-selection bandwidth, Typer/Tectorwise", Fig21},
		{"fig22", "SIMD normalized response time, Tectorwise (Skylake)", Fig22},
		{"fig23", "SIMD normalized stall time, Tectorwise (Skylake)", Fig23},
		{"fig24", "SIMD single-core bandwidth, Tectorwise (Skylake)", Fig24},
		{"fig25", "SIMD large-join probe, Tectorwise (Skylake)", Fig25},
		{"fig26", "Prefetcher configurations, Typer projection p4", Fig26},
		{"fig27", "Multi-core CPU cycles breakdown, TPC-H", Fig27},
		{"fig28", "Multi-core stall cycles breakdown, TPC-H", Fig28},
		{"fig29", "Multi-core bandwidth, projection p4", Fig29},
		{"fig30", "Multi-core bandwidth, large join", Fig30},
		{"text-sel-bw", "In-text: selection bandwidth utilization", TextSelBW},
		{"text-q6-pred", "In-text: predicated Q6 speedup and bandwidth", TextQ6Pred},
		{"text-chains", "In-text: hash chain statistics, group-by vs join", TextChains},
		{"text-ht", "In-text: hyper-threading and SIMD multi-core bandwidth", TextHT},
	}
}

// AllExperiments returns the paper experiments followed by the
// repository's extension experiments (ext-*).
func AllExperiments() []Experiment {
	return append(Experiments(), extensions()...)
}

// Lookup finds an experiment by id, including extensions.
func Lookup(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table1 regenerates the server-parameter table with the MLC kernels.
func Table1(h *Harness) Figure {
	m := h.Cfg.Machine
	f := Figure{ID: "table1", Title: "Server parameters (MLC against the simulated machine)"}
	f.Notes = append(f.Notes, fmt.Sprintf("machine: %s, %d sockets x %d cores @ %.2f GHz",
		m.Name, m.Sockets, m.CoresPerSocket, m.ClockHz/1e9))
	for _, r := range mlc.LatencySweep(m) {
		f.Notes = append(f.Notes, fmt.Sprintf("pointer-chase %8.1f KB -> %5.1f cycles (%s)",
			float64(r.RegionBytes)/1024, r.Cycles, r.Level))
	}
	seq, rnd := mlc.SequentialBandwidthGBs(m), mlc.RandomBandwidthGBs(m)
	f.Notes = append(f.Notes, fmt.Sprintf("per-core bandwidth: %.1f GB/s sequential, %.1f GB/s random", seq, rnd))
	sseq, srnd := mlc.SocketBandwidthGBs(m)
	f.Notes = append(f.Notes, fmt.Sprintf("per-socket bandwidth: %.1f GB/s sequential, %.1f GB/s random", sseq, srnd))
	return f
}

func projectionFigure(h *Harness, id, title string, systems []System) Figure {
	f := Figure{ID: id, Title: title}
	for _, sys := range systems {
		for _, d := range engine.ProjectionDegrees() {
			f.Series = append(f.Series, h.MeasureProjection(sys, d, Opts{}))
		}
	}
	return f
}

// Fig1 is the projection CPU-cycles breakdown for the commercial
// systems.
func Fig1(h *Harness) Figure {
	return projectionFigure(h, "fig1", "Projection CPU cycles, DBMS R/C", []System{DBMSR, DBMSC})
}

// Fig2 is the projection stall-cycles breakdown for the commercial
// systems (same measurements, second-level view).
func Fig2(h *Harness) Figure {
	f := projectionFigure(h, "fig2", "Projection stall cycles, DBMS R/C", []System{DBMSR, DBMSC})
	f.ID = "fig2"
	return f
}

// Fig3 is the projection CPU-cycles breakdown for Typer/Tectorwise.
func Fig3(h *Harness) Figure {
	return projectionFigure(h, "fig3", "Projection CPU cycles, Typer/Tectorwise", HighPerf())
}

// Fig4 is the projection stall-cycles breakdown for Typer/Tectorwise.
func Fig4(h *Harness) Figure {
	f := projectionFigure(h, "fig4", "Projection stall cycles, Typer/Tectorwise", HighPerf())
	return f
}

// Fig5 is the single-core sequential bandwidth of the projection sweep
// against the per-core maximum.
func Fig5(h *Harness) Figure {
	f := projectionFigure(h, "fig5", "Projection single-core bandwidth (GB/s)", HighPerf())
	f.Notes = append(f.Notes, fmt.Sprintf("MAX per-core sequential: %.1f GB/s",
		h.Cfg.Machine.PerCoreBW.Sequential/1e9))
	return f
}

// Fig6 is the normalized (to Typer) response time of projection p4
// across all four systems.
func Fig6(h *Harness) Figure {
	f := Figure{ID: "fig6", Title: "Projection p4 normalized response time"}
	base := h.MeasureProjection(Typer, 4, Opts{})
	for _, sys := range AllSystems() {
		s := h.MeasureProjection(sys, 4, Opts{})
		f.Series = append(f.Series, s)
		f.Notes = append(f.Notes, fmt.Sprintf("%s: %.1fx Typer (%.1f ms)",
			sys, s.Profile.Seconds/base.Profile.Seconds, s.Profile.Milliseconds()))
	}
	return f
}

func selectionFigure(h *Harness, id, title string, systems []System, predicated bool) Figure {
	f := Figure{ID: id, Title: title}
	for _, sys := range systems {
		for _, sel := range engine.Selectivities() {
			f.Series = append(f.Series, h.MeasureSelection(sys, sel, predicated, Opts{}))
		}
	}
	return f
}

// Fig7 is the selection CPU-cycles breakdown for DBMS R/C.
func Fig7(h *Harness) Figure {
	return selectionFigure(h, "fig7", "Selection CPU cycles, DBMS R/C", []System{DBMSR, DBMSC}, false)
}

// Fig8 is the selection stall-cycles breakdown for DBMS R/C.
func Fig8(h *Harness) Figure {
	return selectionFigure(h, "fig8", "Selection stall cycles, DBMS R/C", []System{DBMSR, DBMSC}, false)
}

// Fig9 is the selection CPU-cycles breakdown for Typer/Tectorwise.
func Fig9(h *Harness) Figure {
	return selectionFigure(h, "fig9", "Selection CPU cycles, Typer/Tectorwise", HighPerf(), false)
}

// Fig10 is the selection stall-cycles breakdown for Typer/Tectorwise.
func Fig10(h *Harness) Figure {
	return selectionFigure(h, "fig10", "Selection stall cycles, Typer/Tectorwise", HighPerf(), false)
}

func joinFigure(h *Harness, id, title string, systems []System) Figure {
	f := Figure{ID: id, Title: title}
	for _, sys := range systems {
		for _, size := range engine.JoinSizes() {
			f.Series = append(f.Series, h.MeasureJoin(sys, size, Opts{}))
		}
	}
	return f
}

// Fig11 is the join CPU-cycles breakdown for DBMS R/C.
func Fig11(h *Harness) Figure {
	return joinFigure(h, "fig11", "Join CPU cycles, DBMS R/C", []System{DBMSR, DBMSC})
}

// Fig12 is the join CPU-cycles breakdown for Typer/Tectorwise.
func Fig12(h *Harness) Figure {
	return joinFigure(h, "fig12", "Join CPU cycles, Typer/Tectorwise", HighPerf())
}

// Fig13 is the join stall-cycles breakdown for Typer/Tectorwise.
func Fig13(h *Harness) Figure {
	return joinFigure(h, "fig13", "Join stall cycles, Typer/Tectorwise", HighPerf())
}

// Fig14 is the large join's bandwidth utilization (left) and the
// normalized response times across systems (right).
func Fig14(h *Harness) Figure {
	f := Figure{ID: "fig14", Title: "Large join: bandwidth + normalized response time"}
	base := h.MeasureJoin(Typer, engine.JoinLarge, Opts{})
	for _, sys := range AllSystems() {
		s := h.MeasureJoin(sys, engine.JoinLarge, Opts{})
		f.Series = append(f.Series, s)
		f.Notes = append(f.Notes, fmt.Sprintf("%s: %.1fx Typer", sys, s.Profile.Seconds/base.Profile.Seconds))
	}
	f.Notes = append(f.Notes, fmt.Sprintf("MAX per-core random: %.1f GB/s", h.Cfg.Machine.PerCoreBW.Random/1e9))
	return f
}

func tpchFigure(h *Harness, id, title string) Figure {
	f := Figure{ID: id, Title: title}
	for _, sys := range HighPerf() {
		for _, q := range engine.TPCHQueries() {
			f.Series = append(f.Series, h.MeasureTPCH(sys, q, false, Opts{}))
		}
	}
	return f
}

// Fig15 is the TPC-H CPU-cycles breakdown for Typer/Tectorwise.
func Fig15(h *Harness) Figure { return tpchFigure(h, "fig15", "TPC-H CPU cycles, Typer/Tectorwise") }

// Fig16 is the TPC-H stall-cycles breakdown for Typer/Tectorwise.
func Fig16(h *Harness) Figure { return tpchFigure(h, "fig16", "TPC-H stall cycles, Typer/Tectorwise") }

func predicationFigure(h *Harness, id, title string, sys System) Figure {
	f := Figure{ID: id, Title: title}
	for _, sel := range engine.Selectivities() {
		f.Series = append(f.Series, h.MeasureSelection(sys, sel, false, Opts{}))
		f.Series = append(f.Series, h.MeasureSelection(sys, sel, true, Opts{}))
	}
	return f
}

// Fig17 is Typer's branched vs branch-free selection response time.
func Fig17(h *Harness) Figure {
	return predicationFigure(h, "fig17", "Predication response time, Typer", Typer)
}

// Fig18 is Typer's branched vs branch-free stall time.
func Fig18(h *Harness) Figure {
	return predicationFigure(h, "fig18", "Predication stall time, Typer", Typer)
}

// Fig19 is Tectorwise's branched vs branch-free selection response
// time.
func Fig19(h *Harness) Figure {
	return predicationFigure(h, "fig19", "Predication response time, Tectorwise", Tectorwise)
}

// Fig20 is Tectorwise's branched vs branch-free stall time.
func Fig20(h *Harness) Figure {
	return predicationFigure(h, "fig20", "Predication stall time, Tectorwise", Tectorwise)
}

// Fig21 is the predicated-selection bandwidth for both engines.
func Fig21(h *Harness) Figure {
	f := Figure{ID: "fig21", Title: "Predicated selection bandwidth (GB/s)"}
	for _, sys := range HighPerf() {
		for _, sel := range engine.Selectivities() {
			f.Series = append(f.Series, h.MeasureSelection(sys, sel, true, Opts{}))
		}
	}
	f.Notes = append(f.Notes, fmt.Sprintf("MAX per-core sequential: %.1f GB/s",
		h.Cfg.Machine.PerCoreBW.Sequential/1e9))
	return f
}

// simdOpts returns the scalar and SIMD option sets on Skylake.
func (h *Harness) simdOpts() (scalar, simd Opts) {
	return Opts{Machine: h.Cfg.Skylake}, Opts{Machine: h.Cfg.Skylake, SIMD: true}
}

// Fig22 compares Tectorwise response times with and without AVX-512
// on the Skylake model (projection p4 + branch-free selections).
func Fig22(h *Harness) Figure {
	f := Figure{ID: "fig22", Title: "SIMD normalized response time, Tectorwise (Skylake)"}
	scalar, simd := h.simdOpts()
	f.Series = append(f.Series, h.MeasureProjection(Tectorwise, 4, scalar))
	f.Series = append(f.Series, h.MeasureProjection(Tectorwise, 4, simd))
	for _, sel := range engine.Selectivities() {
		f.Series = append(f.Series, h.MeasureSelection(Tectorwise, sel, true, scalar))
		f.Series = append(f.Series, h.MeasureSelection(Tectorwise, sel, true, simd))
	}
	base := h.MeasureProjection(Tectorwise, 4, scalar)
	s := h.MeasureProjection(Tectorwise, 4, simd)
	f.Notes = append(f.Notes, fmt.Sprintf("projection speedup: %.0f%%", 100*(1-s.Profile.Seconds/base.Profile.Seconds)))
	return f
}

// Fig23 is the same comparison at stall-time level.
func Fig23(h *Harness) Figure {
	f := Fig22(h)
	f.ID = "fig23"
	f.Title = "SIMD normalized stall time, Tectorwise (Skylake)"
	return f
}

// Fig24 is the SIMD bandwidth-utilization comparison.
func Fig24(h *Harness) Figure {
	f := Fig22(h)
	f.ID = "fig24"
	f.Title = "SIMD single-core bandwidth, Tectorwise (Skylake)"
	f.Notes = []string{fmt.Sprintf("MAX per-core sequential (Skylake): %.1f GB/s",
		h.Cfg.Skylake.PerCoreBW.Sequential/1e9)}
	return f
}

// Fig25 compares the large-join probe phase with and without SIMD.
func Fig25(h *Harness) Figure {
	f := Figure{ID: "fig25", Title: "SIMD large-join probe, Tectorwise (Skylake)"}
	scalar, simd := h.simdOpts()
	a := h.MeasureJoinProbeOnly(scalar)
	b := h.MeasureJoinProbeOnly(simd)
	a.Label = "probe w/o SIMD"
	b.Label = "probe w/ SIMD"
	f.Series = append(f.Series, a, b)
	f.Notes = append(f.Notes,
		fmt.Sprintf("response time: -%.0f%%", 100*(1-b.Profile.Seconds/a.Profile.Seconds)),
		fmt.Sprintf("bandwidth: +%.0f%%", 100*(b.Profile.BandwidthGBs/a.Profile.BandwidthGBs-1)))
	return f
}

// Fig26 sweeps the six hardware-prefetcher configurations on Typer's
// projection p4.
func Fig26(h *Harness) Figure {
	f := Figure{ID: "fig26", Title: "Prefetcher configurations, Typer projection p4"}
	for _, cfg := range mem.Figure26Configs() {
		cfg := cfg
		s := h.MeasureProjection(Typer, 4, Opts{Prefetchers: &cfg})
		s.Label = cfg.String()
		f.Series = append(f.Series, s)
	}
	allOff := f.Series[0].Profile
	allOn := f.Series[len(f.Series)-1].Profile
	f.Notes = append(f.Notes,
		fmt.Sprintf("prefetchers cut response time by %.0f%%", 100*(1-allOn.Seconds/allOff.Seconds)),
		fmt.Sprintf("Dcache stalls cut by %.0f%%", 100*(1-allOn.Breakdown.Dcache/allOff.Breakdown.Dcache)))
	return f
}

const multicoreThreads = 14

func multicoreTPCH(h *Harness, id, title string) Figure {
	f := Figure{ID: id, Title: title}
	for _, sys := range HighPerf() {
		for _, q := range engine.TPCHQueries() {
			single := h.MeasureTPCH(sys, q, false, Opts{})
			r := multicore.Run(single.Inputs, multicoreThreads, multicore.Options{})
			s := single
			s.Label = fmt.Sprintf("%s x%d", q, multicoreThreads)
			s.Profile = r.PerThread
			s.Profile.BandwidthGBs = r.SocketBandwidthGBs
			f.Series = append(f.Series, s)
		}
	}
	return f
}

// Fig27 is the multi-core (14-thread) TPC-H CPU-cycles breakdown.
func Fig27(h *Harness) Figure {
	return multicoreTPCH(h, "fig27", "Multi-core TPC-H CPU cycles (14 threads)")
}

// Fig28 is the multi-core TPC-H stall-cycles breakdown.
func Fig28(h *Harness) Figure {
	return multicoreTPCH(h, "fig28", "Multi-core TPC-H stall cycles (14 threads)")
}

func multicoreBW(h *Harness, id, title string, workload func(sys System) Series, maxGBs float64) Figure {
	f := Figure{ID: id, Title: title}
	for _, sys := range HighPerf() {
		single := workload(sys)
		results := multicore.Sweep(single.Inputs, multicore.Options{})
		for _, r := range results {
			s := single
			s.Label = fmt.Sprintf("%d thr", r.Threads)
			s.Profile = r.PerThread
			s.Profile.BandwidthGBs = r.SocketBandwidthGBs
			f.Series = append(f.Series, s)
		}
		sat := multicore.SaturationThreads(results, h.Cfg.Machine, 0.95)
		if sat > 0 {
			f.Notes = append(f.Notes, fmt.Sprintf("%s saturates the socket at %d threads", sys, sat))
		} else {
			f.Notes = append(f.Notes, fmt.Sprintf("%s never saturates the socket", sys))
		}
	}
	f.Notes = append(f.Notes, fmt.Sprintf("MAX per-socket: %.1f GB/s", maxGBs))
	return f
}

// Fig29 is the multi-core bandwidth scaling of projection p4.
func Fig29(h *Harness) Figure {
	return multicoreBW(h, "fig29", "Multi-core bandwidth, projection p4",
		func(sys System) Series { return h.MeasureProjection(sys, 4, Opts{}) },
		h.Cfg.Machine.PerSocketBW.Sequential/1e9)
}

// Fig30 is the multi-core bandwidth scaling of the large join.
func Fig30(h *Harness) Figure {
	return multicoreBW(h, "fig30", "Multi-core bandwidth, large join",
		func(sys System) Series { return h.MeasureJoin(sys, engine.JoinLarge, Opts{}) },
		h.Cfg.Machine.PerSocketBW.Random/1e9)
}

// TextSelBW reports the branched selection bandwidths the paper gives
// in the Section 4 text (Typer 3/5/5, Tectorwise 2.5/3/3 GB/s).
func TextSelBW(h *Harness) Figure {
	f := Figure{ID: "text-sel-bw", Title: "Branched selection bandwidth (Section 4 text)"}
	for _, sys := range HighPerf() {
		for _, sel := range engine.Selectivities() {
			f.Series = append(f.Series, h.MeasureSelection(sys, sel, false, Opts{}))
		}
	}
	return f
}

// TextQ6Pred reports the predicated-Q6 comparison of Section 7's text:
// the signed response-time change and the bandwidth of both engines.
func TextQ6Pred(h *Harness) Figure {
	f := Figure{ID: "text-q6-pred", Title: "Predicated TPC-H Q6 (Section 7 text)"}
	for _, sys := range HighPerf() {
		br := h.MeasureTPCH(sys, engine.Q6, false, Opts{})
		bf := h.MeasureTPCH(sys, engine.Q6, true, Opts{})
		f.Series = append(f.Series, br, bf)
		f.Notes = append(f.Notes, fmt.Sprintf("%s: time %+.0f%%, bandwidth %.1f -> %.1f GB/s",
			sys, 100*(bf.Profile.Seconds/br.Profile.Seconds-1),
			br.Profile.BandwidthGBs, bf.Profile.BandwidthGBs))
	}
	return f
}

// TextChains reports the hash-chain statistics of Section 6's text:
// group-by tables are more irregular than join tables.
func TextChains(h *Harness) Figure {
	f := Figure{ID: "text-chains", Title: "Hash chain statistics (Section 6 text)"}
	as := probe.NewAddrSpace()
	p := probe.New(h.Cfg.Machine, mem.AllPrefetchers())

	ty := typer.New(h.Data, as)
	_, grpHT := ty.GroupBy(p, as)
	grp := grpHT.ChainStats()

	joinHT := join.New(as, "text.join.orders", len(h.Data.Orders.OrderKey))
	for _, k := range h.Data.Orders.OrderKey {
		joinHT.Insert(k)
	}
	jn := joinHT.ChainStats()

	f.Notes = append(f.Notes,
		fmt.Sprintf("group-by chains: mean %.2f std %.2f max %d", grp.Mean, grp.Std, grp.Max),
		fmt.Sprintf("hash-join chains: mean %.2f std %.2f max %d", jn.Mean, jn.Std, jn.Max),
		fmt.Sprintf("group-by max chain is %dx the join's", maxIntDiv(grp.Max, jn.Max)))
	return f
}

func maxIntDiv(a, b int) int {
	if b == 0 {
		return a
	}
	return a / b
}

// TextHT reports Section 10's text claims: hyper-threading improves
// bandwidth extraction ~1.3x, and SIMD raises the multi-core join
// bandwidth.
func TextHT(h *Harness) Figure {
	f := Figure{ID: "text-ht", Title: "Hyper-threading and SIMD multi-core bandwidth (Section 10 text)"}
	for _, sys := range HighPerf() {
		single := h.MeasureJoin(sys, engine.JoinLarge, Opts{})
		plain := multicore.Run(single.Inputs, multicoreThreads, multicore.Options{})
		ht := multicore.Run(single.Inputs, multicoreThreads, multicore.Options{HyperThreading: true})
		f.Notes = append(f.Notes, fmt.Sprintf("%s large join: %.1f -> %.1f GB/s with hyper-threading (%.2fx)",
			sys, plain.SocketBandwidthGBs, ht.SocketBandwidthGBs,
			ht.SocketBandwidthGBs/plain.SocketBandwidthGBs))
	}
	// SIMD multi-core join bandwidth on the Skylake model.
	simdSingle := h.MeasureJoin(Tectorwise, engine.JoinLarge, Opts{Machine: h.Cfg.Skylake, SIMD: true})
	scalarSingle := h.MeasureJoin(Tectorwise, engine.JoinLarge, Opts{Machine: h.Cfg.Skylake})
	simdMC := multicore.Run(simdSingle.Inputs, multicoreThreads, multicore.Options{})
	scalarMC := multicore.Run(scalarSingle.Inputs, multicoreThreads, multicore.Options{})
	f.Notes = append(f.Notes, fmt.Sprintf("Tectorwise join x%d: %.1f GB/s scalar -> %.1f GB/s with SIMD",
		multicoreThreads, scalarMC.SocketBandwidthGBs, simdMC.SocketBandwidthGBs))
	return f
}
