package storage

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"olapmicro/internal/probe"
)

// intsOf builds a column from v through Append.
func intsOf[T int64 | byte](v []T) *Ints {
	c := MakeInts(len(v))
	for _, x := range v {
		c.Append(int64(x))
	}
	return &c
}

func TestColI64Addressing(t *testing.T) {
	as := probe.NewAddrSpace()
	c := NewColI64(as, "c", intsOf([]int64{1, 2, 3, 4}))
	if c.R.Size != 32 {
		t.Fatalf("region size = %d", c.R.Size)
	}
	if c.Addr(2)-c.Addr(0) != 16 {
		t.Fatal("element stride must be 8 bytes")
	}
	if c.Addr(0) != c.R.Base {
		t.Fatal("first element at region base")
	}
}

func TestColI8Addressing(t *testing.T) {
	as := probe.NewAddrSpace()
	c := NewColI8(as, "c", intsOf([]byte{1, 2, 3}))
	if c.R.Size != 3 {
		t.Fatalf("region size = %d", c.R.Size)
	}
	if c.Addr(2)-c.Addr(1) != 1 {
		t.Fatal("byte column stride must be 1")
	}
}

func TestColStrPackedHeap(t *testing.T) {
	as := probe.NewAddrSpace()
	c := NewColStr(as, "c", []string{"ab", "cde", ""})
	if c.R.Size != 5 {
		t.Fatalf("region size = %d", c.R.Size)
	}
	if c.Len(0) != 2 || c.Len(1) != 3 || c.Len(2) != 0 {
		t.Fatal("string lengths wrong")
	}
	if c.Addr(1) != c.Addr(0)+2 {
		t.Fatal("strings must pack back to back")
	}
}

func TestRowHeapAddressing(t *testing.T) {
	as := probe.NewAddrSpace()
	h := NewRowHeap(as, "t", 100, 136)
	if h.R.Size != 13600 {
		t.Fatalf("region size = %d", h.R.Size)
	}
	if h.Addr(3)-h.Addr(2) != 136 {
		t.Fatal("row stride must equal RowBytes")
	}
}

func TestDistinctStructuresGetDistinctRegions(t *testing.T) {
	as := probe.NewAddrSpace()
	a := NewColI64(as, "a", intsOf(make([]int64, 100)))
	b := NewColI64(as, "b", intsOf(make([]int64, 100)))
	if a.R.Base+a.R.Size > b.R.Base {
		t.Fatal("column regions must not overlap")
	}
}

// TestIntsWidthBoundaries appends values on each side of every width
// boundary: the column takes the narrowest width holding all of them,
// widens by copying its prefix, reads every value back through At,
// keeps its extremes, and binds to a simulated region whose stride is
// 8 bytes at every host width.
func TestIntsWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		vals []int64
		host any
	}{
		{[]int64{0, 7, 255}, []uint8(nil)},
		{[]int64{3, 255, 256}, []uint16(nil)},
		{[]int64{65535}, []uint16(nil)},
		{[]int64{1, 65535, 65536}, []uint32(nil)},
		{[]int64{math.MaxUint32}, []uint32(nil)},
		{[]int64{9, 255, 65536, math.MaxUint32, 1 << 32}, []int64(nil)},
		{[]int64{5, -1}, []int64(nil)},
		{[]int64{math.MinInt64, math.MaxInt64}, []int64(nil)},
	} {
		c := intsOf(tc.vals)
		if got, want := reflect.TypeOf(c.Host()), reflect.TypeOf(tc.host); got != want {
			t.Errorf("%v: host values %v, want %v", tc.vals, got, want)
		}
		if c.Len() != len(tc.vals) {
			t.Fatalf("%v: %d values", tc.vals, c.Len())
		}
		for i, x := range tc.vals {
			if c.At(i) != x {
				t.Errorf("%v: At(%d) = %d", tc.vals, i, c.At(i))
			}
		}
		if got := c.Int64s(); !slices.Equal(got, tc.vals) {
			t.Errorf("%v: Int64s = %v", tc.vals, got)
		}
		lo, hi, ok := c.Extremes()
		if !ok || lo != slices.Min(tc.vals) || hi != slices.Max(tc.vals) {
			t.Errorf("%v: Extremes = %d..%d %v", tc.vals, lo, hi, ok)
		}
		col := NewColI64(probe.NewAddrSpace(), "c", c)
		if col.R.Size != uint64(8*len(tc.vals)) || col.Addr(1)-col.Addr(0) != 8 {
			t.Errorf("%v: region %d bytes, stride %d; want 8 per element", tc.vals, col.R.Size, col.Addr(1)-col.Addr(0))
		}
	}
	var z Ints
	if _, _, ok := z.Extremes(); ok || z.Len() != 0 {
		t.Error("an empty column reports values")
	}
	z.Append(300)
	z.Append(5)
	if lo, hi, ok := z.Extremes(); !ok || lo != 5 || hi != 300 || z.At(0) != 300 || z.At(1) != 5 {
		t.Errorf("zero Ints after 300, 5: %d..%d %v, values %v", lo, hi, ok, z.Int64s())
	}
	if _, ok := z.Host().([]uint16); !ok {
		t.Errorf("zero Ints after 300, 5: host values %T, want []uint16", z.Host())
	}
}

// TestSizedIntsMatchAppend builds each of TestIntsWidthBoundaries'
// columns by index as well, sized for the widest domain holding its
// values, in reverse order: once sealed, the column must equal the one
// Append builds in host type, values and extremes, so Seal narrows it
// to every width.
func TestSizedIntsMatchAppend(t *testing.T) {
	for _, vals := range [][]int64{
		{0, 7, 255},
		{3, 255, 256},
		{1, 65535, 65536},
		{math.MaxUint32, 0},
		{9, 255, 65536, math.MaxUint32, 1 << 32},
		{5, -1},
		{math.MinInt64, math.MaxInt64},
	} {
		lo, hi := slices.Min(vals), slices.Max(vals)
		c := SizedInts(len(vals), min(lo, 0), math.MaxInt64)
		for i := len(vals) - 1; i >= 0; i-- {
			c.Set(i, vals[i])
		}
		c.Seal(lo, hi)
		want := intsOf(vals)
		if got, wt := reflect.TypeOf(c.Host()), reflect.TypeOf(want.Host()); got != wt {
			t.Errorf("%v: host values %v, want %v", vals, got, wt)
		}
		if got := c.Int64s(); !slices.Equal(got, vals) {
			t.Errorf("%v: values %v", vals, got)
		}
		if glo, ghi, ok := c.Extremes(); !ok || glo != lo || ghi != hi {
			t.Errorf("%v: Extremes = %d..%d %v", vals, glo, ghi, ok)
		}
	}
	if c := SizedInts(3, 0, 300); reflect.TypeOf(c.Host()) != reflect.TypeOf([]uint16(nil)) {
		t.Errorf("SizedInts(3, 0, 300): host values %T, want []uint16", c.Host())
	}
}
