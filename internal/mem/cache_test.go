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

// TestCacheEvictionOrder fills one set, hits every other line in
// reverse, then inserts as many new lines: the victims must be the
// lines never hit, oldest first, then the hit lines in the order of
// their hits.
func TestCacheEvictionOrder(t *testing.T) {
	for _, ways := range []int{1, 8, 20} {
		const sets = 3
		c := NewCache(hw.CacheGeometry{SizeBytes: int64(sets * ways * 64), Ways: ways, LineBytes: 64})
		line := func(k int) uint64 { return uint64(1+k*sets) + 1<<20*sets } // all in set 1
		for k := range ways {
			if _, _, ok := c.Insert(line(k), PfNone, false); ok {
				t.Fatalf("%d ways: insert %d into a set that is not full evicted", ways, k)
			}
		}
		var want []uint64
		for k := 0; k < ways; k += 2 {
			want = append(want, line(k))
		}
		for k := ways - 1 - ways%2; k > 0; k -= 2 {
			if hit, _ := c.Lookup(line(k)); !hit {
				t.Fatalf("%d ways: line %d missed", ways, k)
			}
			want = append(want, line(k))
		}
		for k := range ways {
			if hit, _ := c.Lookup(line(ways + k)); hit {
				t.Fatalf("%d ways: line %d hit before its insert", ways, ways+k)
			}
			ev, _, ok := c.Insert(line(ways+k), PfNone, false)
			if !ok || ev != want[k] {
				t.Fatalf("%d ways: eviction %d took line %#x (valid %v), want %#x", ways, k, ev, ok, want[k])
			}
		}
	}
}

// TestCacheRefillAfterReset: after Reset no line of a full set is
// resident, the set refills without evicting, and the first line
// inserted after Reset is the first victim.
func TestCacheRefillAfterReset(t *testing.T) {
	for _, ways := range []int{1, 8, 20} {
		c := NewCache(hw.CacheGeometry{SizeBytes: int64(4 * ways * 64), Ways: ways, LineBytes: 64})
		for k := range uint64(ways) {
			c.Insert(k*4, PfNone, true)
		}
		c.Reset()
		for k := range uint64(ways) {
			if c.Contains(k * 4) {
				t.Fatalf("%d ways: line %d survived Reset", ways, k*4)
			}
		}
		for k := range uint64(ways) {
			if _, _, ok := c.Insert(1000*4+k*4, PfNone, false); ok {
				t.Fatalf("%d ways: refill %d evicted", ways, k)
			}
			if c.Contains(k * 4) {
				t.Fatalf("%d ways: line %d from before Reset is resident again", ways, k*4)
			}
		}
		ev, dirty, ok := c.Insert(2000*4, PfNone, false)
		if !ok || dirty || ev != 1000*4 {
			t.Fatalf("%d ways: first victim after refill %d (dirty %v, valid %v), want clean line %d", ways, ev, dirty, ok, 1000*4)
		}
	}
}

// TestCacheSetIndex checks the set index against line % sets for every
// L1D, L2 and L3 set count of both machines at scales 1 to 64, on lines
// at the edges of the reciprocal's range (below 2³²) and of the
// division that serves the lines above it, and on random lines.
func TestCacheSetIndex(t *testing.T) {
	lines := []uint64{0, 1, 1<<32 - 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<40 + 12345, 1<<63 + 7, ^uint64(0)}
	x := uint64(99)
	for range 200 {
		x = x*6364136223846793005 + 1442695040888963407
		lines = append(lines, x>>32, x)
	}
	seen := map[int64]bool{}
	for _, m := range []*hw.Machine{hw.Broadwell(), hw.Skylake()} {
		for f := int64(1); f <= 64; f++ {
			s := m.Scaled(f)
			for _, g := range []hw.CacheGeometry{s.L1D, s.L2, s.L3} {
				sets := g.Sets()
				if seen[sets] {
					continue
				}
				seen[sets] = true
				c := NewCache(hw.CacheGeometry{SizeBytes: sets * 64, Ways: 1, LineBytes: 64})
				for _, l := range append(lines, uint64(sets)-1, uint64(sets), uint64(sets)<<20-1) {
					if got, want := c.set(l), int(l%uint64(sets)); got != want {
						t.Fatalf("%d sets: line %#x in set %d, want %d", sets, l, got, want)
					}
				}
			}
		}
	}
}
