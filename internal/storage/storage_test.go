package storage

import (
	"testing"

	"olapmicro/internal/probe"
)

func TestColI64Addressing(t *testing.T) {
	as := probe.NewAddrSpace()
	c := NewColI64(as, "c", []int64{1, 2, 3, 4})
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
	c := NewColI8(as, "c", []byte{1, 2, 3})
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
	a := NewColI64(as, "a", make([]int64, 100))
	b := NewColI64(as, "b", make([]int64, 100))
	if a.R.Base+a.R.Size > b.R.Base {
		t.Fatal("column regions must not overlap")
	}
}
