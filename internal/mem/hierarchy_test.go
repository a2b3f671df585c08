package mem

import (
	"testing"

	"olapmicro/internal/hw"
)

func newTestHierarchy(cfg PrefetcherConfig) *Hierarchy {
	return NewHierarchy(hw.Broadwell().Scaled(8), cfg)
}

func TestHierarchySequentialScanClassified(t *testing.T) {
	h := newTestHierarchy(NoPrefetchers())
	base := uint64(1 << 30)
	h.Load(base, 1<<20) // 1 MB stream, beyond all scaled caches
	s := h.Stats
	if s.MemAccesses == 0 {
		t.Fatal("cold 1 MB scan must reach DRAM")
	}
	if s.SeqMemLines < s.MemAccesses*9/10 {
		t.Fatalf("scan lines classified seq=%d of mem=%d; want >90%%", s.SeqMemLines, s.MemAccesses)
	}
	if s.BytesFromMem < 1<<20 {
		t.Fatalf("scan must transfer at least its size, got %d", s.BytesFromMem)
	}
}

func TestHierarchyRandomProbesClassified(t *testing.T) {
	h := newTestHierarchy(NoPrefetchers())
	base := uint64(1 << 30)
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Load(base+(x%(64<<20))&^7, 8)
	}
	s := h.Stats
	if s.RandMemLines < s.SeqMemLines {
		t.Fatalf("random probes classified rand=%d seq=%d; want rand dominant", s.RandMemLines, s.SeqMemLines)
	}
}

func TestHierarchyRepeatedAccessHitsL1(t *testing.T) {
	h := newTestHierarchy(AllPrefetchers())
	addr := uint64(1 << 30)
	h.Load(addr, 8)
	before := h.Stats.L1Hits
	for i := 0; i < 100; i++ {
		h.Load(addr, 8)
	}
	if got := h.Stats.L1Hits - before; got != 100 {
		t.Fatalf("repeated loads: %d L1 hits, want 100", got)
	}
}

func TestHierarchyPrefetchersProduceStreamHits(t *testing.T) {
	h := newTestHierarchy(AllPrefetchers())
	h.Load(1<<30, 1<<20)
	s := h.Stats
	pf := s.L1PfHits + s.L2PfHits + s.L3PfHits
	if pf == 0 {
		t.Fatal("streamers must convert scan misses into prefetched hits")
	}
	if s.PfFillsStream == 0 {
		t.Fatal("stream prefetches must fetch from DRAM")
	}
	// With prefetchers the demand-DRAM share must drop massively.
	h2 := newTestHierarchy(NoPrefetchers())
	h2.Load(1<<30, 1<<20)
	if s.MemAccesses*2 > h2.Stats.MemAccesses {
		t.Fatalf("prefetchers on: %d demand DRAM lines; off: %d — expected <50%%",
			s.MemAccesses, h2.Stats.MemAccesses)
	}
}

func TestHierarchyPrefetchDisabledNoFills(t *testing.T) {
	h := newTestHierarchy(NoPrefetchers())
	h.Load(1<<30, 1<<20)
	if h.Stats.PfFillsStream+h.Stats.PfFillsNL != 0 {
		t.Fatal("disabled prefetchers must not fetch")
	}
	if h.Stats.PfIssuedL1NL+h.Stats.PfIssuedL1St+h.Stats.PfIssuedL2NL+h.Stats.PfIssuedL2St != 0 {
		t.Fatal("disabled prefetchers must not issue")
	}
}

func TestHierarchyWritebacks(t *testing.T) {
	h := newTestHierarchy(NoPrefetchers())
	// Dirty a region larger than the whole hierarchy, then evict it by
	// scanning another region; write-backs must reach DRAM.
	h.Store(1<<30, 8<<20)
	h.Load(1<<31, 8<<20)
	if h.Stats.BytesToMem == 0 {
		t.Fatal("evicting dirty lines must produce DRAM write traffic")
	}
}

func TestHierarchyIndepClassification(t *testing.T) {
	h := newTestHierarchy(NoPrefetchers())
	base := uint64(1 << 30)
	// Sparse strided reads with a stride too large for the stream
	// detector, flagged independent.
	for i := uint64(0); i < 4000; i++ {
		h.LoadIndep(base+i*64*9, 8)
	}
	if h.Stats.IndepMemLines == 0 {
		t.Fatal("independent sparse loads must be classified IndepMemLines")
	}
	if h.Stats.RandMemLines > h.Stats.IndepMemLines/4 {
		t.Fatalf("indep loads leaked into RandMemLines: rand=%d indep=%d",
			h.Stats.RandMemLines, h.Stats.IndepMemLines)
	}
}

func TestHierarchyResetStatsKeepsWarmth(t *testing.T) {
	h := newTestHierarchy(NoPrefetchers())
	h.Load(1<<30, 8)
	h.ResetStats()
	h.Load(1<<30, 8)
	if h.Stats.L1Hits != 1 || h.Stats.MemAccesses != 0 {
		t.Fatalf("warm line after ResetStats: l1=%d mem=%d", h.Stats.L1Hits, h.Stats.MemAccesses)
	}
	h.Reset()
	h.Load(1<<30, 8)
	if h.Stats.MemAccesses != 1 {
		t.Fatal("Reset must cold the caches")
	}
}

func TestHierarchyStatsAdd(t *testing.T) {
	a := Stats{Loads: 1, Stores: 2, L1Hits: 3, MemAccesses: 4, BytesFromMem: 5, BytesToMem: 6, SeqMemLines: 7}
	b := a
	a.Add(b)
	if a.Loads != 2 || a.Stores != 4 || a.L1Hits != 6 || a.MemAccesses != 8 ||
		a.BytesFromMem != 10 || a.BytesToMem != 12 || a.SeqMemLines != 14 {
		t.Fatalf("Stats.Add wrong: %+v", a)
	}
	if a.TotalBytes() != 22 {
		t.Fatalf("TotalBytes = %d, want 22", a.TotalBytes())
	}
}

func TestEffectivePrefetchDistanceOrdering(t *testing.T) {
	dist := func(cfg PrefetcherConfig) float64 {
		return NewHierarchy(hw.Broadwell(), cfg).EffectivePrefetchDistance()
	}
	if dist(NoPrefetchers()) != 0 {
		t.Fatal("no prefetchers -> distance 0")
	}
	if !(dist(AllPrefetchers()) >= dist(PrefetcherConfig{L1Streamer: true})) {
		t.Fatal("all prefetchers must run at least as far ahead as the L1 streamer")
	}
	if !(dist(PrefetcherConfig{L1Streamer: true}) > dist(PrefetcherConfig{L1NextLine: true})) {
		t.Fatal("the streamer must run further ahead than next-line")
	}
	if dist(PrefetcherConfig{L2Streamer: true}) != dist(AllPrefetchers()) {
		t.Fatal("the L2 streamer alone matches all-enabled (Figure 26's finding)")
	}
}

// The levels are not inclusive, so a prefetch must check its target
// level even when a nearer level already holds the line, and it reads
// DRAM only when no level holds it.
func TestPrefetchIntoNonInclusive(t *testing.T) {
	const line = 1 << 24
	for _, tc := range []struct {
		name     string
		resident int // level holding the line beforehand; 3 is none
		target   int
		class    PfClass
		want     [3]bool // residency per level afterwards
	}{
		{"only in L1, into L2", 0, 1, PfStream, [3]bool{true, true, false}},
		{"only in L3, into L1", 2, 0, PfStream, [3]bool{true, false, true}},
		{"nowhere, into L1", 3, 0, PfNextLine, [3]bool{true, false, true}},
		{"nowhere, into L2", 3, 1, PfStream, [3]bool{false, true, true}},
	} {
		h := newTestHierarchy(NoPrefetchers())
		if tc.resident < 3 {
			h.levels[tc.resident].Insert(line, PfNone, false)
		}
		h.prefetchInto(tc.target, line, tc.class)
		for i, c := range h.levels {
			if c.Contains(line) != tc.want[i] {
				t.Errorf("%s: L%d holds the line = %v, want %v", tc.name, i+1, !tc.want[i], tc.want[i])
			}
		}
		var bytes, stream, nl uint64
		if tc.resident == 3 {
			bytes = hw.Line
			if tc.class == PfStream {
				stream = 1
			} else {
				nl = 1
			}
		}
		s := h.Stats
		if s.BytesFromMem != bytes || s.PfFillsStream != stream || s.PfFillsNL != nl {
			t.Errorf("%s: DRAM bytes %d, stream fills %d, NL fills %d; want %d, %d, %d",
				tc.name, s.BytesFromMem, s.PfFillsStream, s.PfFillsNL, bytes, stream, nl)
		}
		if _, was := h.levels[tc.target].Lookup(line); was != tc.class {
			t.Errorf("%s: target installed the line as %v, want %v", tc.name, was, tc.class)
		}
	}
}

// BenchmarkHierarchy times the demand path and the prefetchers on the
// quick Broadwell machine with all four prefetchers on. One op is a
// 16 KiB stretch of a sequential stream, 64 random loads and 64 random
// stores across 64 MiB; ns/line divides by the 384 lines that touches.
func BenchmarkHierarchy(b *testing.B) {
	const seqBytes, randSpan, randOps = 16 << 10, 64 << 20, 64
	h := newTestHierarchy(AllPrefetchers())
	seq, x := uint64(1<<40), uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x % randSpan &^ 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(seq, seqBytes)
		seq += seqBytes
		for j := 0; j < randOps; j++ {
			h.Load(1<<30+next(), 8)
			h.Store(1<<31+next(), 8)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(seqBytes>>lineShift+2*randOps)), "ns/line")
}
