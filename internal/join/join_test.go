package join

import (
	"testing"
	"testing/quick"

	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
)

func newProbe() (*probe.Probe, *probe.AddrSpace) {
	return probe.New(hw.Broadwell().Scaled(8), mem.AllPrefetchers()), probe.NewAddrSpace()
}

// Lookup is the unprobed reference chain walk: the first slot whose key
// matches, or -1.
func (t *Table) Lookup(key int64) int32 {
	for s := t.heads[t.bucket(key)]; s >= 0; s = t.nexts[s] {
		if t.keys[s] == key {
			return s
		}
	}
	return -1
}

func TestInsertLookup(t *testing.T) {
	_, as := newProbe()
	ht := New(as, "t", 16)
	for k := int64(0); k < 16; k++ {
		ht.Insert(k * 7)
	}
	for k := int64(0); k < 16; k++ {
		s := ht.Lookup(k * 7)
		if s < 0 {
			t.Fatalf("key %d not found", k*7)
		}
		if ht.Keys()[s] != k*7 {
			t.Fatalf("slot %d holds %d, want %d", s, ht.Keys()[s], k*7)
		}
	}
	if ht.Lookup(999) >= 0 {
		t.Fatal("absent key found")
	}
}

func TestLookupAgainstMapReference(t *testing.T) {
	f := func(keys []int64, probes []int64) bool {
		_, as := newProbe()
		ht := New(as, "t", len(keys)+1)
		ref := make(map[int64]bool)
		for _, k := range keys {
			if !ref[k] {
				ht.Insert(k)
				ref[k] = true
			}
		}
		for _, q := range append(probes, keys...) {
			if (ht.Lookup(q) >= 0) != ref[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupOrInsertStableSlots(t *testing.T) {
	p, as := newProbe()
	ht := New(as, "t", 8)
	s1, ins1 := ht.LookupOrInsertProbed(p, 1, 42)
	s2, ins2 := ht.LookupOrInsertProbed(p, 1, 42)
	if !ins1 || ins2 {
		t.Fatalf("insert flags wrong: %v %v", ins1, ins2)
	}
	if s1 != s2 {
		t.Fatalf("slots differ: %d %d", s1, s2)
	}
}

func TestProbedMatchesUnprobed(t *testing.T) {
	p, as := newProbe()
	a := New(as, "a", 64)
	b := New(as, "b", 64)
	keys := []int64{3, 14, 15, 92, 65, 35, 89, 79, 32, 38, 46}
	for _, k := range keys {
		a.Insert(k)
		b.InsertProbed(p, k)
	}
	for q := int64(0); q < 100; q++ {
		if (a.Lookup(q) >= 0) != (b.LookupProbed(p, 1, q) >= 0) {
			t.Fatalf("probed and raw lookup disagree on %d", q)
		}
	}
	if p.Ops.Uops() == 0 || p.Mem.Stats.Accesses() == 0 {
		t.Fatal("probed operations must emit events")
	}
}

func TestDuplicateKeysChain(t *testing.T) {
	p, as := newProbe()
	ht := New(as, "t", 16)
	for i := 0; i < 5; i++ {
		ht.InsertProbed(p, 7)
	}
	s := ht.LookupProbed(p, 2, 7)
	count := 1
	for {
		s = ht.LookupNextProbed(p, 2, s, 7)
		if s < 0 {
			break
		}
		count++
	}
	if count != 5 {
		t.Fatalf("found %d duplicates, want 5", count)
	}
}

func TestChainStats(t *testing.T) {
	_, as := newProbe()
	ht := New(as, "t", 1024)
	for k := int64(0); k < 1024; k++ {
		ht.Insert(k)
	}
	cs := ht.ChainStats()
	// 1024 keys into 2048 buckets: mean 0.5, some spread, max small.
	if cs.Mean < 0.4 || cs.Mean > 0.6 {
		t.Fatalf("mean chain = %.2f, want ~0.5", cs.Mean)
	}
	if cs.Std <= 0 {
		t.Fatal("chain std must be positive")
	}
	if cs.Max < 1 || cs.Max > 10 {
		t.Fatalf("max chain = %d", cs.Max)
	}
}

func TestChainStatsEmpty(t *testing.T) {
	_, as := newProbe()
	ht := New(as, "t", 4)
	cs := ht.ChainStats()
	if cs.Mean != 0 || cs.Std != 0 || cs.Max != 0 {
		t.Fatalf("empty table stats: %+v", cs)
	}
}

func TestEntryAddrWithinRegion(t *testing.T) {
	_, as := newProbe()
	ht := New(as, "t", 1000)
	for s := int32(0); s < 1000; s++ {
		a := ht.entryAddr(s)
		if a < ht.entryR.Base || a+entryBytes > ht.entryR.Base+ht.entryR.Size {
			t.Fatalf("slot %d address %#x outside region", s, a)
		}
	}
}

func TestHashAvalanche(t *testing.T) {
	// Adjacent keys must land in well-spread buckets.
	seen := make(map[uint64]int)
	for k := int64(0); k < 4096; k++ {
		seen[Hash(k)&1023]++
	}
	for b, n := range seen {
		if n > 32 { // expectation 4, generous bound
			t.Fatalf("bucket %d got %d of 4096 sequential keys", b, n)
		}
	}
}

func TestBucketsPowerOfTwoAndCapacity(t *testing.T) {
	_, as := newProbe()
	for _, capacity := range []int{1, 3, 100, 1024, 5000} {
		ht := New(as, "t", capacity)
		b := len(ht.heads)
		if b&(b-1) != 0 {
			t.Fatalf("buckets %d not a power of two", b)
		}
		if b < 2*capacity {
			t.Fatalf("buckets %d < 2x capacity %d", b, capacity)
		}
	}
}
