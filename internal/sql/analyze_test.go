package sql

import (
	"reflect"
	"strings"
	"testing"
)

// TestExplainAnalyzeShape pins the EXPLAIN ANALYZE report's shape on
// the paper queries for both engines: the plan, the predicted and
// observed top-down rows side by side, a per-operator table naming
// the engine's actual pipeline stages, and the host-wall span tree.
// The executed result, counter inputs and profile must match a plain
// serial run of the same statement — ANALYZE observes the query, it
// must not change it.
func TestExplainAnalyzeShape(t *testing.T) {
	d, m := cv(t)
	for _, tc := range []struct {
		name, sql, engine string
		operators         []string
	}{
		{"Q6/typer", q6SQL, "typer",
			[]string{"scan lineitem", "filter+probe+aggregate (fused)"}},
		{"Q1/typer", q1SQL, "typer",
			[]string{"scan lineitem", "filter+probe+aggregate (fused)"}},
		{"Q6/tectorwise", q6SQL, "tectorwise",
			[]string{"select[0]", "gather agg-inputs", "aggregate"}},
		{"Q1/tectorwise", q1SQL, "tectorwise",
			[]string{"select[0]", "gather agg-inputs", "hash-aggregate"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, a, err := Run(d, m, "explain analyze "+tc.sql, Options{Engine: tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			if a == nil || a.Analysis == nil {
				t.Fatal("EXPLAIN ANALYZE returned no analysis")
			}
			_, plain, err := Run(d, m, tc.sql, Options{Engine: tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			if !a.Result.Equal(plain.Result) {
				t.Errorf("analyzed result %v != plain result %v", a.Result, plain.Result)
			}
			// Sections only attribute counters; they never change them.
			if !reflect.DeepEqual(a.Inputs, plain.Inputs) {
				t.Errorf("analyzed inputs %+v != plain inputs %+v", a.Inputs, plain.Inputs)
			}
			if !reflect.DeepEqual(a.Profile, plain.Profile) {
				t.Errorf("analyzed profile %+v != plain profile %+v", a.Profile, plain.Profile)
			}
			out := c.RenderAnalysis(a.Analysis)
			for _, want := range append([]string{
				"plan:",
				"predicted vs observed (",
				"serial reference run",
				"\n  predicted ",
				"\n  observed ",
				"operators (observed",
				"model is nonlinear",
				"timings (host wall):",
				"compile",
				"scan+probe",
				"finalize",
			}, tc.operators...) {
				if !strings.Contains(out, want) {
					t.Errorf("report missing %q:\n%s", want, out)
				}
			}
			// The observed run is the analysis's own serial execution.
			if a.Threads != 1 {
				t.Errorf("analyze answer reports %d threads, want the serial reference run", a.Threads)
			}
		})
	}
}

// TestExplainAnalyzeBitIdenticalAcrossThreads pins the determinism
// contract: the observed profile and per-operator counters come from
// a dedicated serial instrumented run, so they are bit-identical
// whatever parallelism the session requested. (Summed parallel worker
// counters would not be — each worker warms its own caches — which is
// exactly why the reference run exists.)
func TestExplainAnalyzeBitIdenticalAcrossThreads(t *testing.T) {
	d, m := cv(t)
	for _, tc := range []struct{ name, sql, engine string }{
		{"Q6/typer", q6SQL, "typer"},
		{"Q1/tectorwise", q1SQL, "tectorwise"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type snap struct {
				observed, predicted any
				ops                 []OpProfile
			}
			var ref *snap
			var refThreads int
			for _, threads := range []int{1, 4, 8} {
				_, a, err := Run(d, m, "explain analyze "+tc.sql,
					Options{Engine: tc.engine, Threads: threads})
				if err != nil {
					t.Fatalf("threads %d: %v", threads, err)
				}
				an := a.Analysis
				// Strip the span tree: host-wall timings legitimately vary.
				got := &snap{observed: an.Observed, predicted: an.Predicted, ops: an.Ops}
				if ref == nil {
					ref, refThreads = got, threads
					continue
				}
				if !reflect.DeepEqual(got.observed, ref.observed) {
					t.Errorf("threads %d: observed profile differs from threads %d", threads, refThreads)
				}
				if !reflect.DeepEqual(got.predicted, ref.predicted) {
					t.Errorf("threads %d: predicted profile differs from threads %d", threads, refThreads)
				}
				if !reflect.DeepEqual(got.ops, ref.ops) {
					t.Errorf("threads %d: per-operator counters differ from threads %d", threads, refThreads)
				}
			}
		})
	}
}

// TestCompileSpans pins the compile-time span tree Options.Trace
// receives: parse, bind+plan, predict and select children under one
// compile span, with the chosen engine annotated.
func TestCompileSpans(t *testing.T) {
	d, m := cv(t)
	c, err := Compile(d, m, q6SQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Spans == nil {
		t.Fatal("Compile recorded no spans")
	}
	for _, name := range []string{"parse", "bind+plan", "predict", "select"} {
		if c.Spans.Find(name) == nil {
			t.Errorf("compile span tree missing %q:\n%s", name, c.Spans.Render())
		}
	}
	if !strings.Contains(c.Spans.Render(), "engine=") {
		t.Errorf("select span not annotated with the engine choice:\n%s", c.Spans.Render())
	}
}
