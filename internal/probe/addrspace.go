package probe

import "fmt"

// Region is a contiguous simulated virtual-address range backing a
// table column, a page heap, a hash table, or an intermediate vector.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// AddrAt returns the address of byte offset off within the region.
func (r Region) AddrAt(off uint64) uint64 {
	return r.Base + off
}

// AddrSpace hands out non-overlapping, line-aligned simulated address
// regions. Separate data structures land on separate regions so the
// cache simulator sees realistic conflict behaviour.
type AddrSpace struct {
	next    uint64
	limit   uint64 // 0 = unbounded; forked children enforce their window
	regions []Region
}

// NewAddrSpace starts the address space at a non-zero base so address
// zero is never valid.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{next: 1 << 20}
}

const regionAlign = 4096 // page-align regions, matching allocator behaviour

// Alloc reserves size bytes and records the region under name.
func (a *AddrSpace) Alloc(name string, size uint64) Region {
	if size == 0 {
		size = 1
	}
	base := a.next
	a.next += (size + regionAlign - 1) &^ (regionAlign - 1)
	// Leave one guard page between regions.
	a.next += regionAlign
	if a.limit > 0 && a.next > a.limit {
		// Overrunning a forked window would silently alias the next
		// worker's regions and corrupt two simulated cores' counters;
		// fail loudly instead.
		panic(fmt.Sprintf("probe: region %q overruns the forked address window (%d of %d bytes)",
			name, a.next, a.limit))
	}
	r := Region{Name: name, Base: base, Size: size}
	a.regions = append(a.regions, r)
	return r
}

// Fork reserves a window of size bytes and returns a child address
// space allocating inside it. Parallel workers carve their private
// structures (group tables, scratch vectors) from their own fork, so
// they never synchronize on the shared space and never alias the
// regions allocated from it so far; a child allocation overrunning
// the window panics rather than aliasing its neighbour.
func (a *AddrSpace) Fork(name string, size uint64) *AddrSpace {
	r := a.Alloc(name, size)
	return &AddrSpace{next: r.Base, limit: r.Base + size}
}

// TotalBytes is the sum of allocated region sizes.
func (a *AddrSpace) TotalBytes() uint64 {
	var t uint64
	for _, r := range a.regions {
		t += r.Size
	}
	return t
}

// String summarizes the layout.
func (a *AddrSpace) String() string {
	return fmt.Sprintf("addrspace{%d regions, %.1f MB}", len(a.regions), float64(a.TotalBytes())/1e6)
}
