// Package storage binds generated table data to simulated virtual
// addresses. Column-oriented engines (DBMS C, Typer, Tectorwise) scan
// Col* values; the row-store engine (DBMS R) scans RowHeap values,
// whose slotted N-byte tuples make it read entire rows even when a
// query touches one attribute.
package storage

import "olapmicro/internal/probe"

// ColI64 is an int64 column bound to a simulated address region.
type ColI64 struct {
	V []int64
	R probe.Region
}

// NewColI64 binds v under name in the address space.
func NewColI64(as *probe.AddrSpace, name string, v []int64) ColI64 {
	return ColI64{V: v, R: as.Alloc(name, uint64(len(v))*8)}
}

// Addr returns the simulated address of element i.
func (c ColI64) Addr(i int) uint64 { return c.R.Base + uint64(i)*8 }

// ColI8 is a byte column bound to a simulated address region.
type ColI8 struct {
	V []byte
	R probe.Region
}

// NewColI8 binds v under name in the address space.
func NewColI8(as *probe.AddrSpace, name string, v []byte) ColI8 {
	return ColI8{V: v, R: as.Alloc(name, uint64(len(v)))}
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
