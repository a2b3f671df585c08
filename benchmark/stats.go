package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the number is one or two outliers, not a
// percentile (choosing-metrics guide, section 1).
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It panics on an empty slice: every caller
// has already checked that it measured something.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// the ascending-sorted samples, or an error when fewer than minBeyond
// samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(float64(n)*p/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return sorted[rank], nil
}

// relDiff is (b-a)/a, the signed change from a to b as a share of a.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / a
}
