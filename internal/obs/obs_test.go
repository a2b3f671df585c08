package obs

import (
	"strings"
	"testing"
	"time"
)

// expositionLines renders a registry and returns its non-TYPE lines.
func expositionLines(t *testing.T, r *Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "# TYPE") {
			out = append(out, line)
		}
	}
	return out
}

// wantLine asserts the exposition contains the exact line.
func wantLine(t *testing.T, lines []string, want string) {
	t.Helper()
	for _, l := range lines {
		if l == want {
			return
		}
	}
	t.Errorf("exposition missing %q; got:\n  %s", want, strings.Join(lines, "\n  "))
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	r := NewRegistry()
	depth := int64(7)
	r.GaugeFunc("depth", func() float64 { return float64(depth) })
	depth -= 3
	wantLine(t, expositionLines(t, r), "depth 4")
}

// TestHistogramBucketBoundaries pins the `le` convention: an
// observation exactly on a bound belongs to that bound's bucket, one
// just above spills into the next, and values beyond the last bound
// land in +Inf only. The cumulative counts come from the exposition,
// the same view a scrape sees.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_ms", []float64{1, 2, 5})
	h.Observe(1)   // exactly le="1"
	h.Observe(1.5) // le="2"
	h.Observe(2)   // exactly le="2"
	h.Observe(5)   // exactly le="5"
	h.Observe(6)   // overflow: +Inf only
	lines := expositionLines(t, r)
	wantLine(t, lines, `x_ms_bucket{le="1"} 1`)
	wantLine(t, lines, `x_ms_bucket{le="2"} 3`)
	wantLine(t, lines, `x_ms_bucket{le="5"} 4`)
	wantLine(t, lines, `x_ms_bucket{le="+Inf"} 5`)
	wantLine(t, lines, `x_ms_count 5`)
	wantLine(t, lines, `x_ms_sum 15.5`)
	if got := h.count.Load(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 15.5 {
		t.Errorf("Sum = %g, want 15.5", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	// Ten observations in (1,2]: the q-quantile interpolates linearly
	// across that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got != 1.5 {
		t.Errorf("p50 = %g, want 1.5 (midpoint of bucket (1,2])", got)
	}
	if got := h.Quantile(1); got != 2 {
		t.Errorf("p100 = %g, want 2 (upper bound of holding bucket)", got)
	}
	// Overflow observations report the last bound, the only honest
	// answer a bounded histogram has.
	h2 := NewHistogram([]float64{1, 2, 4})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 4 {
		t.Errorf("overflow quantile = %g, want last bound 4", got)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(0.01) // below the smallest default bound
	if got := h.count.Load(); got != 1 {
		t.Errorf("Count = %d, want 1", got)
	}
}

func TestHistogramRejectsNonIncreasingBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram accepted non-increasing bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q_total")
	c.Inc()
	c.Inc()
	c.Inc()
	r.GaugeFunc("depth", func() float64 { return 2 })
	r.GaugeFunc("ratio", func() float64 { return 0.25 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "# TYPE q_total counter\nq_total 3\n# TYPE depth gauge\ndepth 2\n# TYPE ratio gauge\nratio 0.25\n"
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup")
	defer func() {
		if recover() == nil {
			t.Error("registry accepted a duplicate metric name")
		}
	}()
	r.Counter("dup")
}

func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	root.Annotate("id=%d", 7)
	child := root.Child("execute")
	w := child.Child("worker[0]")
	w.SetDuration(1500 * time.Microsecond)
	w.Annotate("morsels=%d", 3)
	child.End()
	root.End()
	root.End() // idempotent: the first End wins

	if got := root.Find("worker[0]"); got != w {
		t.Errorf("Find(worker[0]) = %v, want the worker span", got)
	}
	if root.Find("missing") != nil {
		t.Error("Find(missing) should be nil")
	}
	if got := w.Duration(); got != 1500*time.Microsecond {
		t.Errorf("worker duration = %v, want 1.5ms", got)
	}

	text := root.Render()
	for _, want := range []string{
		"query ", "id=7",
		"\n  execute ",
		"\n    worker[0] 1.50ms morsels=3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}

func TestSpanAdopt(t *testing.T) {
	root := NewSpan("query")
	orphan := NewSpan("compile")
	orphan.End()
	root.Adopt(orphan)
	root.Adopt(nil) // nil-safe
	root.End()
	if got := root.Find("compile"); got != orphan {
		t.Error("adopted span not reachable from the root")
	}
}
