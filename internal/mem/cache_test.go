package mem

import (
	"testing"
	"testing/quick"

	"olapmicro/internal/hw"
)

func smallGeometry() hw.CacheGeometry {
	return hw.CacheGeometry{SizeBytes: 4 * 64 * 2, Ways: 2, LineBytes: 64, MissLatency: 10}
}

func TestCacheMissThenHit(t *testing.T) {
	c := NewCache(smallGeometry())
	if hit, _ := c.Lookup(42); hit {
		t.Fatal("empty cache must miss")
	}
	c.Insert(42, PfNone, false)
	if hit, _ := c.Lookup(42); !hit {
		t.Fatal("inserted line must hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(smallGeometry()) // 4 sets x 2 ways
	sets := uint64(4)
	// Three lines mapping to set 0: 0, 4, 8.
	c.Insert(0*sets, PfNone, false)
	c.Insert(1*sets, PfNone, false)
	c.Lookup(0 * sets) // refresh line 0: line 4 becomes LRU
	ev, _, ok := c.Insert(2*sets, PfNone, false)
	if !ok {
		t.Fatal("expected an eviction from a full set")
	}
	if ev != 1*sets {
		t.Fatalf("expected LRU victim %d, got %d", 1*sets, ev)
	}
	if hit, _ := c.Lookup(0 * sets); !hit {
		t.Fatal("recently used line must survive")
	}
	if hit, _ := c.Lookup(1 * sets); hit {
		t.Fatal("evicted line must miss")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := NewCache(smallGeometry())
	c.Insert(0, PfNone, true)
	c.Insert(4, PfNone, false)
	_, dirty, ok := c.Insert(8, PfNone, false) // evicts line 0 (LRU)
	if !ok || !dirty {
		t.Fatalf("expected dirty eviction, got ok=%v dirty=%v", ok, dirty)
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := NewCache(smallGeometry())
	c.Insert(7, PfNone, false)
	if !c.MarkDirty(7) {
		t.Fatal("MarkDirty must report a resident line")
	}
	if c.MarkDirty(3) || c.Contains(3) {
		t.Fatal("MarkDirty must report an absent line and leave it absent")
	}
	c.Insert(11, PfNone, false)
	ev, wasDirty, _ := c.Insert(15, PfNone, false) // evicts line 7 (LRU)
	if ev != 7 || !wasDirty {
		t.Fatalf("MarkDirty must stick: evicted %d dirty=%v", ev, wasDirty)
	}
}

func TestCachePrefetchClassClearedOnHit(t *testing.T) {
	c := NewCache(smallGeometry())
	c.Insert(3, PfStream, false)
	if _, was := c.Lookup(3); was != PfStream {
		t.Fatalf("first hit must report PfStream, got %v", was)
	}
	if _, was := c.Lookup(3); was != PfNone {
		t.Fatalf("second hit must report PfNone, got %v", was)
	}
}

func TestCacheContainsDoesNotDisturbState(t *testing.T) {
	c := NewCache(smallGeometry())
	c.Insert(9, PfNextLine, false)
	if !c.Contains(9) {
		t.Fatal("Contains must see the line")
	}
	if _, was := c.Lookup(9); was != PfNextLine {
		t.Fatal("Contains must not clear the prefetch class")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache(smallGeometry())
	for i := uint64(0); i < 16; i++ {
		c.Insert(i, PfNone, true)
	}
	c.Reset()
	for i := uint64(0); i < 16; i++ {
		if hit, _ := c.Lookup(i); hit {
			t.Fatalf("line %d survived Reset", i)
		}
	}
}

// TestCacheInclusionProperty: any line just inserted must hit, and a
// line never inserted must miss — over random insert sequences.
func TestCacheInclusionProperty(t *testing.T) {
	f := func(lines []uint64) bool {
		c := NewCache(hw.CacheGeometry{SizeBytes: 1 << 14, Ways: 4, LineBytes: 64, MissLatency: 1})
		for _, l := range lines {
			l %= 1 << 20
			c.Insert(l, PfNone, false)
			if hit, _ := c.Lookup(l); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheSetCapacityBound(t *testing.T) {
	g := smallGeometry() // 2 ways
	c := NewCache(g)
	// Insert way+1 lines into one set; at most `ways` can be resident.
	resident := 0
	for i := uint64(0); i < 3; i++ {
		c.Insert(i*4, PfNone, false)
	}
	for i := uint64(0); i < 3; i++ {
		if c.Contains(i * 4) {
			resident++
		}
	}
	if resident > g.Ways {
		t.Fatalf("set holds %d lines, capacity is %d", resident, g.Ways)
	}
}
