// Package obs is the repository's dependency-free observability
// toolkit: atomic counters, scrape-time gauges, fixed-bucket latency
// histograms, a registry that renders everything in the Prometheus
// text exposition format, and per-query span trees (span.go). It is
// the measurement substrate of internal/server and cmd/olapserve —
// the same role the paper's VTune counter collection plays for the
// hardware runs, but for the serving layer's host-clock behaviour.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefBucketsMs is the default latency bucket layout in milliseconds:
// 1, 2.5 and 5 per decade from 1µs, where a cached microsecond
// statement's queue wait and submit-to-finish latency lie, to
// multi-second saturated queues.
var DefBucketsMs = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// Histogram is a fixed-bucket histogram with Prometheus semantics:
// bucket i counts observations <= Bounds[i] (cumulative when
// exported), plus an overflow bucket above the last bound. Observe is
// lock-free; snapshots are weakly consistent, which is fine for
// monitoring.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. Nil bounds select DefBucketsMs.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBucketsMs
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. Values land in the first bucket whose
// upper bound is >= v (the `le` convention), so an observation exactly
// on a boundary belongs to that boundary's bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Sum is the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the holding bucket, the same estimate
// Prometheus's histogram_quantile computes. Observations above the
// last bound report the last bound. It returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// metric is one registered exposition entry.
type metric struct {
	name string
	kind string // "counter", "gauge", "histogram"
	emit func(w io.Writer, name string)
}

// Registry holds metrics in registration order and renders them in
// the Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ex := range r.metrics {
		if ex.name == m.name {
			panic("obs: duplicate metric " + m.name)
		}
	}
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, c.Value)
	return c
}

// CounterFunc registers a counter whose value is read at scrape time.
func (r *Registry) CounterFunc(name string, f func() uint64) {
	r.add(metric{name: name, kind: "counter", emit: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, f())
	}})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.add(metric{name: name, kind: "gauge", emit: func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(f()))
	}})
}

// Histogram registers and returns a new histogram (nil bounds select
// DefBucketsMs).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(metric{name: name, kind: "histogram", emit: func(w io.Writer, n string) {
		// One pass over the buckets; the derived cumulative total keeps
		// the +Inf bucket and _count consistent within this scrape even
		// while observations land concurrently.
		var cum uint64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", n, cum)
	}})
	return h
}

// formatFloat renders a float the way Prometheus clients do: integral
// values without an exponent or trailing zeros.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric, each preceded by its # TYPE
// line, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind); err != nil {
			return err
		}
		m.emit(w, m.name)
	}
	return nil
}
