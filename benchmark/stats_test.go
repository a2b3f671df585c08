package main

import "testing"

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ascending(200) // value k is at rank k
	for _, c := range []struct{ p, want float64 }{{50, 100}, {90, 180}, {95, 190}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..200 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
}

// A percentile is refused unless at least ten samples lie beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{100, 90, true},  // rank 90, ten beyond
		{99, 90, false},  // rank 90 of 99, nine beyond
		{200, 99, false}, // two beyond
		{1000, 99, true},
		{20, 50, true},
		{19, 50, false},
		{0, 50, false},
	} {
		_, err := percentile(ascending(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok = %v", c.p, c.n, err, c.ok)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if d := relDiff(100, 110); d < 0.0999 || d > 0.1001 {
		t.Errorf("relDiff(100, 110) = %v", d)
	}
	if d := relDiff(0, 0); d != 0 {
		t.Errorf("relDiff(0, 0) = %v", d)
	}
}
