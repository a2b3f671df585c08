package sql

import (
	"fmt"
	"strings"

	"olapmicro/internal/obs"
	"olapmicro/internal/probe"
	"olapmicro/internal/tmam"
)

// OpProfile is one named operator section of the analyze run: its raw
// counter deltas and the top-down profile accounted from them alone.
type OpProfile struct {
	Name     string
	Counters probe.Counters
	Profile  tmam.Profile
}

// Analysis is one EXPLAIN ANALYZE execution. The observed numbers
// come from a dedicated serial instrumented run — the same
// single-core reference every determinism guarantee in this
// repository is phrased against — so they are bit-identical whatever
// thread count or server concurrency the statement was compiled for.
// Host wall timings live in Span; simulated times in the profiles.
type Analysis struct {
	Engine string
	// Answer is the serial instrumented run (Answer.Analysis == this).
	Answer *Answer
	// Predicted is the cost model's serial profile for the chosen
	// engine; Observed the accounted profile of the actual run.
	Predicted, Observed tmam.Profile
	// Ops attributes the run to operator sections in execution order.
	Ops []OpProfile
	// Span is the host-clock span tree of the analyze run (build,
	// scan+probe, finalize).
	Span *obs.Span
}

// serialPrediction is the chosen engine's single-threaded predicted
// profile (prediction ignores the Parallel overlay).
func (c *Compiled) serialPrediction() tmam.Profile {
	for _, p := range c.Predictions {
		if p.System == c.Engine {
			return p.Profile
		}
	}
	return tmam.Profile{}
}

// Analyze executes the statement's serial run with the probe's
// named-section attribution enabled: one worker, one morsel spanning
// the driver. It is EXPLAIN ANALYZE's engine — the paper's
// predicted-vs-measured methodology applied to one statement on
// demand.
func (c *Compiled) Analyze() (*Analysis, error) {
	p, res, root, err := c.serialRun(true)
	if err != nil {
		return nil, err
	}
	an := &Analysis{
		Engine:    c.Engine,
		Predicted: c.serialPrediction(),
		Observed:  tmam.Account(p, tmam.Params{}),
		Span:      root,
	}
	for _, s := range p.Sections() {
		an.Ops = append(an.Ops, OpProfile{
			Name:     s.Name,
			Counters: s.Counters,
			Profile:  tmam.AccountInputs(tmam.InputsFromCounters(p, s.Counters), tmam.Params{}),
		})
	}
	an.Answer = &Answer{
		Engine:    c.Engine,
		Result:    res,
		Profile:   an.Observed,
		Predicted: an.Predicted,
		Inputs:    tmam.InputsFrom(p),
		Threads:   1,
		Analysis:  an,
	}
	return an, nil
}

// profileRow formats one side of the predicted-vs-observed table in
// the same columns EXPLAIN's engine table uses.
func profileRow(b *strings.Builder, label string, pr tmam.Profile) {
	bd := pr.Breakdown
	ex, dc, de, ic, br := bd.StallShares()
	fmt.Fprintf(b, "  %-10s %12d %12.2f %8.1f | %5.0f %6.0f %6.0f %6.0f %6.0f\n",
		label, pr.Instructions, pr.Milliseconds(), 100*bd.RetiringRatio(),
		100*ex, 100*dc, 100*de, 100*ic, 100*br)
}

// RenderAnalysis renders an EXPLAIN ANALYZE report: the plan, the
// predicted-vs-observed top-down comparison, the per-operator
// observed breakdown, and the host-clock span tree of the run.
func (c *Compiled) RenderAnalysis(an *Analysis) string {
	var b strings.Builder
	b.WriteString("plan:\n")
	for _, line := range strings.Split(strings.TrimRight(c.Pipeline.String(), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	fmt.Fprintf(&b, "predicted vs observed (%s, serial reference run):\n", an.Engine)
	fmt.Fprintf(&b, "  %-10s %12s %12s %8s | %5s %6s %6s %6s %6s\n",
		"", "uops", "time(ms)", "retire%", "exec", "dcache", "decode", "icache", "brmisp")
	profileRow(&b, "predicted", an.Predicted)
	profileRow(&b, "observed", an.Observed)
	fmt.Fprintf(&b, "operators (observed, serial reference run):\n")
	fmt.Fprintf(&b, "  %-44s %10s %12s %12s %7s %6s\n",
		"operator", "time(ms)", "cycles", "uops", "dcache%", "time%")
	total := an.Observed.Seconds
	for _, op := range an.Ops {
		dcache := 0.0
		if t := op.Profile.Breakdown.Total; t > 0 {
			dcache = op.Profile.Breakdown.Dcache / t
		}
		share := 0.0
		if total > 0 {
			share = op.Profile.Seconds / total
		}
		fmt.Fprintf(&b, "  %-44s %10.2f %12.0f %12d %7.1f %6.1f\n",
			op.Name, op.Profile.Milliseconds(), op.Profile.Breakdown.Total,
			op.Profile.Instructions, 100*dcache, 100*share)
	}
	b.WriteString("  (sections are accounted independently; the model is nonlinear, so operator times need not sum to the total)\n")
	if c.Threads > 1 {
		fmt.Fprintf(&b, "parallel (modelled, %d threads): %.2f ms\n",
			c.Threads, 1e3*c.prediction(c.Engine).Seconds)
	}
	b.WriteString("timings (host wall):\n")
	spans := an.Span.Render()
	if c.Spans != nil {
		spans = c.Spans.Render() + spans
	}
	for _, line := range strings.Split(strings.TrimRight(spans, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
