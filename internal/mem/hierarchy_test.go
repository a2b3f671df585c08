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

// FuzzHierarchy runs a trace decoded from the input on the production
// hierarchy and on the tick-LRU oracle in reference_test.go, for each
// Figure 26 prefetcher configuration on both machines at the quick
// scale (1/8) and at 1/4096, where L1D has one set, L2 one or two and
// L3 five or seven. After every operation every Stats counter must
// match, and so must each level's residency of the lines the operation
// touched and of the 16 lines on either side of its last one, which
// the prefetchers reach.
//
// Each operation takes three bytes: an opcode and two arguments. It
// runs ascending and descending runs with strides of one to five
// lines, runs across a page boundary, random lines over a few regions
// (near line 0, where descending prefetch windows wrap, near 2³², the
// set-index division's edge, and above it), stores, independent loads,
// multi-line loads, and ResetStats and Reset. Lines stay between 64
// and 2⁴⁰: the oracle's invalid tag is line 2⁶⁴ − 1, which it counts
// as resident in every empty way, and a prefetch window reaches it only
// from below line 16.
func FuzzHierarchy(f *testing.F) {
	machines := []*hw.Machine{
		hw.Broadwell().Scaled(8), hw.Skylake().Scaled(8),
		hw.Broadwell().Scaled(1 << 12), hw.Skylake().Scaled(1 << 12),
	}
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) > 3*256 {
			trace = trace[:3*256]
		}
		for _, m := range machines {
			for _, cfg := range Figure26Configs() {
				compareTrace(t, m, cfg, trace)
			}
		}
	})
}

// fuzzRegions are the first lines of the regions FuzzHierarchy's trace
// jumps to.
var fuzzRegions = [4]uint64{linesPerPage, 1 << 20, 1<<32 - 96, 1 << 34}

// fuzzLine folds a trace line into [64, 2⁴⁰).
func fuzzLine(line uint64) uint64 {
	const lo, hi = linesPerPage, 1 << 40
	return lo + (line-lo)%(hi-lo)
}

// compareTrace decodes trace into operations (see FuzzHierarchy) and
// runs them on a production and an oracle hierarchy of machine m.
func compareTrace(t *testing.T, m *hw.Machine, cfg PrefetcherConfig, trace []byte) {
	h, ref := NewHierarchy(m, cfg), newRefHierarchy(m, cfg)
	var touched []uint64
	cur := fuzzRegions[1]
	load := func(line uint64, kind byte) {
		line = fuzzLine(line)
		addr := line << lineShift
		touched = append(touched, line)
		switch kind % 3 {
		case 0:
			h.Load(addr, 8)
			ref.Load(addr, 8)
		case 1:
			h.Store(addr, 8)
			ref.Store(addr, 8)
		default:
			h.LoadIndep(addr, 8)
			ref.LoadIndep(addr, 8)
		}
	}
	for op := 0; op+3 <= len(trace); op += 3 {
		code, a, b := trace[op], trace[op+1], trace[op+2]
		cur = fuzzLine(cur)
		touched = touched[:0]
		switch code % 8 {
		case 0, 1: // a run of 1 to 64 loads or stores, ascending or descending
			stride := uint64(1 + b%5)
			for range 1 + a%64 {
				load(cur, b/5)
				if code%8 == 0 {
					cur += stride
				} else {
					cur -= stride
				}
			}
		case 2: // a jump into a region
			cur = fuzzRegions[a%4] + uint64(b)*41
		case 3: // a random load, store or independent load near the cursor
			load(cur+uint64(a)*131+uint64(b), code/8)
		case 4: // a run that crosses a page boundary
			cur = (cur/linesPerPage+1)*linesPerPage - uint64(1+a%4)
			for range 2 + b%8 {
				load(cur, code/8)
				cur++
			}
		case 5: // a load or store spanning several lines
			addr, size := cur<<lineShift+uint64(a), 1+uint64(b)*8
			for l := addr >> lineShift; l <= (addr+size-1)>>lineShift; l++ {
				touched = append(touched, l)
			}
			if code&8 == 0 {
				h.Load(addr, size)
				ref.Load(addr, size)
			} else {
				h.Store(addr, size)
				ref.Store(addr, size)
			}
		case 6:
			h.ResetStats()
			ref.ResetStats()
		case 7:
			if a%4 == 0 {
				h.Reset()
				ref.Reset()
			}
		}
		if h.Stats != ref.Stats {
			t.Fatalf("%s, %v: stats differ after op %d (%d %d %d)\n got %+v\nwant %+v",
				m.Name, cfg, op/3, code, a, b, h.Stats, ref.Stats)
		}
		if len(touched) > 0 {
			last := touched[len(touched)-1]
			for d := uint64(0); d <= 32; d++ {
				touched = append(touched, last-16+d)
			}
		}
		for _, l := range touched {
			for i, c := range h.levels {
				if got, want := c.Contains(l), ref.levels[i].Contains(l); got != want {
					t.Fatalf("%s, %v: after op %d (%d %d %d) L%d holds line %#x = %v, want %v",
						m.Name, cfg, op/3, code, a, b, i+1, l, got, want)
				}
			}
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

// BenchmarkHierarchyL3Probe times the path that dominates a measured
// hash join's probes: a random 8-byte load that misses the quick
// Broadwell machine's L1D and L2 and hits L3, with all four
// prefetchers on. The 2 MiB region is larger than the simulated L2
// (32 KiB) and smaller than L3 (4.375 MiB), and its lines sit below
// 2³² like every address probe.AddrSpace hands out. One op is one load;
// its offset is the top 21 bits of an LCG step.
func BenchmarkHierarchyL3Probe(b *testing.B) {
	const base, regionBits = 1 << 30, 21
	h := newTestHierarchy(AllPrefetchers())
	h.Load(base, 1<<regionBits)
	h.ResetStats()
	x := uint64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Load(base+x>>(64-regionBits)&^7, 8)
	}
	b.StopTimer()
	if s := h.Stats; s.L3Hits < s.Loads*3/4 {
		b.Fatalf("%d of %d loads hit L3; the benchmark no longer times the L3 probe", s.L3Hits, s.Loads)
	}
}
