package tpch

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// TestGenerateMatchesReference compares the parallel generator with the
// sequential one it replaced (reference_test.go) at several scale
// factors and GOMAXPROCS values: every table's row count and every
// catalog column's values, host element type and extremes must be the
// same. SF 1e-6 is one order and one row of every scaled table, each
// domain's lower edge; storage's TestSizedIntsMatchAppend covers the
// narrowing Seal does when values fall short of their domain's width.
func TestGenerateMatchesReference(t *testing.T) {
	sfs := []float64{1e-6, 0.001, 0.01, 0.05, 0.25}
	switch {
	case testing.Short():
		sfs = sfs[:3]
	case raceEnabled:
		sfs = sfs[:4] // SF 0.05 is already 37 chunks among the workers
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sf := range sfs {
		want := refGenerate(sf)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			sameData(t, sf, procs, Generate(sf), want)
		}
	}
}

// sameData reports every table and column of got that differs from want.
func sameData(t *testing.T, sf float64, procs int, got, want *Data) {
	t.Helper()
	for _, tb := range Schema() {
		if g, w := tb.Rows(got), tb.Rows(want); g != w {
			t.Errorf("SF %v GOMAXPROCS %d: %s has %d rows, want %d", sf, procs, tb.Name, g, w)
			continue
		}
		for _, c := range tb.Cols {
			if c.Str != nil {
				if !slices.Equal(c.Str(got), c.Str(want)) {
					t.Errorf("SF %v GOMAXPROCS %d: %s values differ", sf, procs, c.Name)
				}
				continue
			}
			g, w := c.Ints(got), c.Ints(want)
			if gt, wt := reflect.TypeOf(g.Host()), reflect.TypeOf(w.Host()); gt != wt {
				t.Errorf("SF %v GOMAXPROCS %d: %s host values %v, want %v", sf, procs, c.Name, gt, wt)
			}
			glo, ghi, gok := g.Extremes()
			wlo, whi, wok := w.Extremes()
			if glo != wlo || ghi != whi || gok != wok {
				t.Errorf("SF %v GOMAXPROCS %d: %s extremes %d..%d %v, want %d..%d %v", sf, procs, c.Name, glo, ghi, gok, wlo, whi, wok)
			}
			for i := range w.Len() {
				if g.At(i) != w.At(i) {
					t.Errorf("SF %v GOMAXPROCS %d: %s row %d = %d, want %d", sf, procs, c.Name, i, g.At(i), w.At(i))
					break
				}
			}
		}
	}
}

// allocBudget is the bytes Generate(0.25) allocates (the TotalAlloc
// delta), as measured when every orders and lineitem column was first
// allocated once at its exact length and final width.
const allocBudget = 52_710_000

// TestGenerateAllocBudget pins the bytes Generate(0.25) allocates as a
// ceiling 1 % above allocBudget: a column sized by guess and grown, or
// widened and copied, allocates its values more than once and fails it.
// Lower allocBudget with a change that lowers the figure.
func TestGenerateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on paths the plain build does not")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Generate(0.25)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Generate(0.25) allocated %d bytes", got)
	if limit := uint64(allocBudget * 1.01); got > limit {
		t.Errorf("Generate(0.25) allocated %d bytes, over the ceiling of %d (1 %% above %d)", got, limit, allocBudget)
	}
}

// BenchmarkGenerate times Generate at the scale quick mode and the
// benchmark serve; compare two commits with `make benchab
// PKG=./internal/tpch BENCH=BenchmarkGenerate`.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Generate(0.25)
	}
}
