// Package storage binds generated table data to simulated virtual
// addresses. Column-oriented engines (DBMS C, Typer, Tectorwise) scan
// Col* values; the row-store engine (DBMS R) scans RowHeap values,
// whose slotted N-byte tuples make it read entire rows even when a
// query touches one attribute.
//
// A column's host width and its simulated width are separate facts.
// Integer values are held at the narrowest width that holds them
// (Ints), while the simulated region keeps the layout the paper's
// engines read: 8 bytes per ColI64 element, 1 per ColI8 element.
package storage

import (
	"math"

	"olapmicro/internal/probe"
)

// Ints is an integer column's host values at the narrowest of four
// widths that holds every value: uint8, uint16, uint32, or int64 for a
// column with a negative value or one past 2³²−1. A column is built one
// of two ways. Append adds values in order: the first allocates at its
// value's width and, on a later value that does not fit, the column
// widens and copies the prefix, so the width is chosen while the column
// is built, with no second pass. SizedInts allocates every value up
// front at the width of a known domain; Set then writes values by index,
// from any number of goroutines at distinct indexes, and Seal records
// the extremes and narrows the column to the width they need. Either way the column ends
// at the same width with the same extremes. Readers call At; the
// vectorized kernels take the typed slice from Host once per column and
// instantiate for its width.
type Ints struct {
	width  int // bytes per host value: 1, 2, 4 or 8; 0 before the first Append
	hint   int // the capacity the first Append allocates
	u8     []uint8
	u16    []uint16
	u32    []uint32
	i64    []int64
	lo, hi int64
}

// MakeInts returns an empty column whose first Append allocates room
// for capacity values at that value's width; a widening keeps the
// capacity.
func MakeInts(capacity int) Ints { return Ints{hint: capacity} }

// Append adds x, widening the column first when x does not fit.
func (c *Ints) Append(x int64) {
	switch {
	case c.width == 1 && uint64(x) <= math.MaxUint8:
		c.u8 = append(c.u8, uint8(x))
	case c.width == 2 && uint64(x) <= math.MaxUint16:
		c.u16 = append(c.u16, uint16(x))
	case c.width == 4 && uint64(x) <= math.MaxUint32:
		c.u32 = append(c.u32, uint32(x))
	case c.width == 8:
		c.i64 = append(c.i64, x)
	default:
		c.widen(x)
		c.Append(x)
		return
	}
	c.lo, c.hi = min(c.lo, x), max(c.hi, x)
}

// widen moves the values to the narrowest width that holds x, which the
// current width does not, keeping the capacity (an empty column's
// hint). An empty column's extremes start at x.
func (c *Ints) widen(x int64) {
	if c.Len() == 0 {
		c.lo, c.hi = x, x
	}
	c.convert(widthOf(x, x), max(cap(c.u8), cap(c.u16), cap(c.u32), cap(c.i64), c.hint))
}

// widthOf is the narrowest host width that holds every value in lo..hi.
func widthOf(lo, hi int64) int {
	switch {
	case lo < 0 || hi > math.MaxUint32:
		return 8
	case hi > math.MaxUint16:
		return 4
	case hi > math.MaxUint8:
		return 2
	}
	return 1
}

// convert moves the values to width bytes each, in a slice of the given
// capacity, keeping the extremes.
func (c *Ints) convert(width, capacity int) {
	old := *c
	n := old.Len()
	*c = Ints{width: width, lo: old.lo, hi: old.hi}
	switch width {
	case 1:
		c.u8 = converted[uint8](&old, n, capacity)
	case 2:
		c.u16 = converted[uint16](&old, n, capacity)
	case 4:
		c.u32 = converted[uint32](&old, n, capacity)
	default:
		c.i64 = converted[int64](&old, n, capacity)
	}
}

func converted[T uint8 | uint16 | uint32 | int64](c *Ints, n, capacity int) []T {
	v := make([]T, n, capacity)
	for i := range v {
		v[i] = T(c.At(i))
	}
	return v
}

// SizedInts returns a column of n values, zero until Set, at the
// narrowest width that holds every value in lo..hi: the domain the
// values will be drawn from. Its extremes are unknown until Seal.
func SizedInts(n int, lo, hi int64) Ints {
	c := Ints{width: widthOf(lo, hi)}
	switch c.width {
	case 1:
		c.u8 = make([]uint8, n)
	case 2:
		c.u16 = make([]uint16, n)
	case 4:
		c.u32 = make([]uint32, n)
	default:
		c.i64 = make([]int64, n)
	}
	return c
}

// Set writes value i of a SizedInts column; x must lie in the domain
// the column was sized for. Sets of distinct indexes may run
// concurrently. Set keeps no extremes: the caller tracks those of the
// values it writes and hands them to Seal.
func (c *Ints) Set(i int, x int64) {
	switch c.width {
	case 1:
		c.u8[i] = uint8(x)
	case 2:
		c.u16[i] = uint16(x)
	case 4:
		c.u32[i] = uint32(x)
	default:
		c.i64[i] = x
	}
}

// Seal finishes a SizedInts column once every value is Set: lo and hi
// are the smallest and largest value written, and a column whose
// extremes fit a narrower width than its domain's moves to it, so the
// column equals one built by Append from the same values.
func (c *Ints) Seal(lo, hi int64) {
	c.lo, c.hi = lo, hi
	if w := widthOf(lo, hi); w < c.width {
		c.convert(w, c.Len())
	}
}

// At reads value i.
func (c *Ints) At(i int) int64 {
	switch c.width {
	case 1:
		return int64(c.u8[i])
	case 2:
		return int64(c.u16[i])
	case 4:
		return int64(c.u32[i])
	}
	return c.i64[i]
}

// Len is the number of values. Only the slice of the column's width
// is non-nil.
func (c *Ints) Len() int { return len(c.u8) + len(c.u16) + len(c.u32) + len(c.i64) }

// Extremes reports the smallest and largest value; ok is false for an
// empty column.
func (c *Ints) Extremes() (lo, hi int64, ok bool) { return c.lo, c.hi, c.Len() > 0 }

// Host is the values as the slice their width holds: []uint8, []uint16,
// []uint32 or []int64.
func (c *Ints) Host() any {
	switch c.width {
	case 2:
		return c.u16
	case 4:
		return c.u32
	case 8:
		return c.i64
	}
	return c.u8
}

// Int64s returns a widened copy of the values.
func (c *Ints) Int64s() []int64 {
	v := make([]int64, c.Len())
	for i := range v {
		v[i] = c.At(i)
	}
	return v
}

// ColI64 is an integer column bound to a simulated address region of
// 8 bytes per element, whatever width its host values take.
type ColI64 struct {
	V *Ints
	R probe.Region
}

// NewColI64 binds v under name in the address space.
func NewColI64(as *probe.AddrSpace, name string, v *Ints) ColI64 {
	return ColI64{V: v, R: as.Alloc(name, uint64(v.Len())*8)}
}

// Addr returns the simulated address of element i.
func (c ColI64) Addr(i int) uint64 { return c.R.Base + uint64(i)*8 }

// ColI8 is a byte column bound to a simulated address region.
type ColI8 struct {
	V *Ints
	R probe.Region
}

// NewColI8 binds v under name in the address space.
func NewColI8(as *probe.AddrSpace, name string, v *Ints) ColI8 {
	return ColI8{V: v, R: as.Alloc(name, uint64(v.Len()))}
}

// Addr returns the simulated address of element i.
func (c ColI8) Addr(i int) uint64 { return c.R.Base + uint64(i) }

// ColStr is a string column bound to a simulated address region; the
// region is sized as the sum of string lengths (a packed heap), and
// each value carries its offset for addressing.
type ColStr struct {
	V    []string
	offs []uint64
	R    probe.Region
}

// NewColStr binds v under name.
func NewColStr(as *probe.AddrSpace, name string, v []string) ColStr {
	offs := make([]uint64, len(v)+1)
	var total uint64
	for i, s := range v {
		offs[i] = total
		total += uint64(len(s))
	}
	offs[len(v)] = total
	return ColStr{V: v, offs: offs, R: as.Alloc(name, total)}
}

// Addr returns the simulated address of string i's bytes.
func (c ColStr) Addr(i int) uint64 { return c.R.Base + c.offs[i] }

// Len returns the byte length of string i.
func (c ColStr) Len(i int) uint64 { return c.offs[i+1] - c.offs[i] }

// RowHeap is a row-major table image for the row-store engine: rows of
// fixed RowBytes width stored back to back (slotted-page layout with
// the page directory folded into the row width).
type RowHeap struct {
	RowBytes uint64
	R        probe.Region
}

// NewRowHeap allocates a heap of rows*rowBytes bytes.
func NewRowHeap(as *probe.AddrSpace, name string, rows int, rowBytes uint64) RowHeap {
	return RowHeap{
		RowBytes: rowBytes,
		R:        as.Alloc(name, uint64(rows)*rowBytes),
	}
}

// Addr returns the simulated address of row i.
func (h RowHeap) Addr(i int) uint64 { return h.R.Base + uint64(i)*h.RowBytes }
