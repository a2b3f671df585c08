package mem

import "olapmicro/internal/hw"

// Stats aggregates everything the hierarchy observed. All counters are
// in units of cache-line events except the byte counters.
type Stats struct {
	Loads  uint64 // demand load line-accesses
	Stores uint64 // demand store line-accesses

	L1Hits      uint64 // demand hits in L1D
	L2Hits      uint64 // demand hits in L2
	L3Hits      uint64 // demand hits in L3
	MemAccesses uint64 // demand lines serviced by DRAM

	// Stream-prefetched lines found on demand: these carry the
	// residual "prefetcher not fast enough" latency.
	L1PfHits uint64
	L2PfHits uint64
	L3PfHits uint64
	// NLPfHits counts demand hits on lines a next-line/adjacent-line
	// prefetcher pulled in outside a stream (e.g. the 128 B buddy of a
	// random probe); they are charged like ordinary cache hits.
	NLPfHits uint64

	SeqMemLines  uint64 // DRAM-serviced demand lines on a detected stream
	RandMemLines uint64 // DRAM-serviced dependent random lines
	// IndepMemLines is the subset of non-stream DRAM lines that the
	// core issued as independent loads (sparse filtered column reads,
	// not pointer-dependent probes): the OoO window overlaps them far
	// more aggressively.
	IndepMemLines uint64

	PfIssuedL1NL uint64 // prefetch fills issued per prefetcher
	PfIssuedL1St uint64
	PfIssuedL2NL uint64
	PfIssuedL2St uint64
	// PfFillsStream / PfFillsNL split DRAM prefetch traffic by context:
	// stream fills transfer at sequential bandwidth, buddy fills of
	// random probes at random bandwidth.
	PfFillsStream uint64
	PfFillsNL     uint64

	BytesFromMem uint64 // demand + prefetch read traffic
	BytesToMem   uint64 // write-back traffic
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.L3Hits += o.L3Hits
	s.MemAccesses += o.MemAccesses
	s.L1PfHits += o.L1PfHits
	s.L2PfHits += o.L2PfHits
	s.L3PfHits += o.L3PfHits
	s.NLPfHits += o.NLPfHits
	s.SeqMemLines += o.SeqMemLines
	s.RandMemLines += o.RandMemLines
	s.IndepMemLines += o.IndepMemLines
	s.PfIssuedL1NL += o.PfIssuedL1NL
	s.PfIssuedL1St += o.PfIssuedL1St
	s.PfIssuedL2NL += o.PfIssuedL2NL
	s.PfIssuedL2St += o.PfIssuedL2St
	s.PfFillsStream += o.PfFillsStream
	s.PfFillsNL += o.PfFillsNL
	s.BytesFromMem += o.BytesFromMem
	s.BytesToMem += o.BytesToMem
}

// Sub returns the counter deltas s - o, where o is an earlier
// snapshot of the same run. The probe layer uses it to attribute
// events to named execution sections.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Loads:         s.Loads - o.Loads,
		Stores:        s.Stores - o.Stores,
		L1Hits:        s.L1Hits - o.L1Hits,
		L2Hits:        s.L2Hits - o.L2Hits,
		L3Hits:        s.L3Hits - o.L3Hits,
		MemAccesses:   s.MemAccesses - o.MemAccesses,
		L1PfHits:      s.L1PfHits - o.L1PfHits,
		L2PfHits:      s.L2PfHits - o.L2PfHits,
		L3PfHits:      s.L3PfHits - o.L3PfHits,
		NLPfHits:      s.NLPfHits - o.NLPfHits,
		SeqMemLines:   s.SeqMemLines - o.SeqMemLines,
		RandMemLines:  s.RandMemLines - o.RandMemLines,
		IndepMemLines: s.IndepMemLines - o.IndepMemLines,
		PfIssuedL1NL:  s.PfIssuedL1NL - o.PfIssuedL1NL,
		PfIssuedL1St:  s.PfIssuedL1St - o.PfIssuedL1St,
		PfIssuedL2NL:  s.PfIssuedL2NL - o.PfIssuedL2NL,
		PfIssuedL2St:  s.PfIssuedL2St - o.PfIssuedL2St,
		PfFillsStream: s.PfFillsStream - o.PfFillsStream,
		PfFillsNL:     s.PfFillsNL - o.PfFillsNL,
		BytesFromMem:  s.BytesFromMem - o.BytesFromMem,
		BytesToMem:    s.BytesToMem - o.BytesToMem,
	}
}

// TotalBytes is all DRAM traffic, the quantity the paper reports as
// used memory bandwidth when divided by run time.
func (s *Stats) TotalBytes() uint64 { return s.BytesFromMem + s.BytesToMem }

// Accesses is the total number of demand line accesses.
func (s *Stats) Accesses() uint64 { return s.Loads + s.Stores }

// Hierarchy is a single core's view of the memory system: private
// L1D and L2, a shared (but per-run exclusive) L3, the four hardware
// prefetchers, and DRAM-traffic accounting.
type Hierarchy struct {
	Machine *hw.Machine
	Config  PrefetcherConfig

	l1d *Cache
	l2  *Cache
	l3  *Cache

	l1Stream   streamDetector // drives the L1 streamer
	l2Stream   streamDetector // drives the L2 streamer
	classifier streamDetector // always-on: classifies seq vs random for TMAM

	Stats Stats
}

// NewHierarchy builds the hierarchy for a machine with the given
// prefetcher configuration.
func NewHierarchy(m *hw.Machine, cfg PrefetcherConfig) *Hierarchy {
	return &Hierarchy{
		Machine: m,
		Config:  cfg,
		l1d:     NewCache(m.L1D),
		l2:      NewCache(m.L2),
		l3:      NewCache(m.L3),
	}
}

// Reset clears all cache contents, detectors and statistics.
func (h *Hierarchy) Reset() {
	h.l1d.Reset()
	h.l2.Reset()
	h.l3.Reset()
	h.l1Stream.reset()
	h.l2Stream.reset()
	h.classifier.reset()
	h.Stats = Stats{}
}

// ResetStats clears statistics but keeps cache contents warm, which is
// how the paper measures (one minute warm-up before profiling).
func (h *Hierarchy) ResetStats() { h.Stats = Stats{} }

const lineShift = 6 // 64-byte lines on both machines

// Load performs a demand load of size bytes at addr, touching every
// spanned cache line.
func (h *Hierarchy) Load(addr, size uint64) {
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	for line := first; line <= last; line++ {
		h.access(line, false, false)
	}
}

// LoadIndep performs a demand load whose address does not depend on a
// prior load (a sparse filtered column read): DRAM misses it causes
// are accounted with the deeper independent-load MLP.
func (h *Hierarchy) LoadIndep(addr, size uint64) {
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	for line := first; line <= last; line++ {
		h.access(line, false, true)
	}
}

// Store performs a demand store of size bytes at addr (write-allocate).
func (h *Hierarchy) Store(addr, size uint64) {
	first := addr >> lineShift
	last := (addr + size - 1) >> lineShift
	for line := first; line <= last; line++ {
		h.access(line, true, false)
	}
}

// LoadRange streams a large sequential region through the hierarchy.
// It is equivalent to Load but avoids re-touching a line per element.
func (h *Hierarchy) LoadRange(addr, size uint64) { h.Load(addr, size) }

// countPfHit attributes a demand hit on a prefetched line.
func (h *Hierarchy) countPfHit(level int, class PfClass) {
	if class == PfNextLine {
		h.Stats.NLPfHits++
		return
	}
	switch level {
	case 1:
		h.Stats.L1PfHits++
	case 2:
		h.Stats.L2PfHits++
	case 3:
		h.Stats.L3PfHits++
	}
}

// access is the demand path: L1D -> L2 -> L3 -> DRAM, then prefetchers.
func (h *Hierarchy) access(line uint64, store, indep bool) {
	if store {
		h.Stats.Stores++
	} else {
		h.Stats.Loads++
	}

	// Always-on classifier: is this access part of a stream?
	seqDepth, _ := h.classifier.observe(line, 16)
	isSeq := seqDepth > 0

	if hit, pf := h.l1d.Lookup(line); hit {
		h.Stats.L1Hits++
		if pf != PfNone {
			h.countPfHit(1, pf)
		}
		if store {
			h.l1d.MarkDirty(line)
		}
		h.runL1Prefetchers(line, false, isSeq)
		return
	}

	// L1 miss -> L2.
	if hit, pf := h.l2.Lookup(line); hit {
		h.Stats.L2Hits++
		if pf != PfNone {
			h.countPfHit(2, pf)
		}
		h.fillL1(line, store)
		h.runL1Prefetchers(line, true, isSeq)
		h.runL2Prefetchers(line, false, isSeq)
		return
	}

	// L2 miss -> L3.
	if hit, pf := h.l3.Lookup(line); hit {
		h.Stats.L3Hits++
		if pf != PfNone {
			h.countPfHit(3, pf)
		}
		h.fillL2(line, PfNone)
		h.fillL1(line, store)
		h.runL1Prefetchers(line, true, isSeq)
		h.runL2Prefetchers(line, true, isSeq)
		return
	}

	// DRAM.
	h.Stats.MemAccesses++
	h.Stats.BytesFromMem += hw.Line
	switch {
	case isSeq:
		h.Stats.SeqMemLines++
	case indep:
		h.Stats.IndepMemLines++
	default:
		h.Stats.RandMemLines++
	}
	h.fillL3(line)
	h.fillL2(line, PfNone)
	h.fillL1(line, store)
	h.runL1Prefetchers(line, true, isSeq)
	h.runL2Prefetchers(line, true, isSeq)
}

// fillL1 installs a line into L1D, handling the dirty eviction path.
func (h *Hierarchy) fillL1(line uint64, dirty bool) {
	ev, evDirty, ok := h.l1d.Insert(line, PfNone, dirty)
	if ok && evDirty {
		if h.l2.Contains(ev) {
			h.l2.MarkDirty(ev)
		} else {
			h.l2.Insert(ev, PfNone, true)
		}
	}
}

func (h *Hierarchy) fillL2(line uint64, asPf PfClass) {
	ev, evDirty, ok := h.l2.Insert(line, asPf, false)
	if ok && evDirty {
		if h.l3.Contains(ev) {
			h.l3.MarkDirty(ev)
		} else {
			h.l3.Insert(ev, PfNone, true)
		}
	}
}

func (h *Hierarchy) fillL3(line uint64) {
	_, evDirty, ok := h.l3.Insert(line, PfNone, false)
	if ok && evDirty {
		h.Stats.BytesToMem += hw.Line
	}
}

// prefetchInto brings a line into the given level (1 or 2) as a
// prefetch of the given class, accounting DRAM traffic if no on-chip
// level has it.
func (h *Hierarchy) prefetchInto(level int, line uint64, class PfClass) {
	onChip := h.l1d.Contains(line) || h.l2.Contains(line) || h.l3.Contains(line)
	if !onChip {
		h.Stats.BytesFromMem += hw.Line
		if class == PfStream {
			h.Stats.PfFillsStream++
		} else {
			h.Stats.PfFillsNL++
		}
		h.fillL3(line)
	}
	switch level {
	case 1:
		if !h.l1d.Contains(line) {
			ev, evDirty, ok := h.l1d.Insert(line, class, false)
			if ok && evDirty {
				if h.l2.Contains(ev) {
					h.l2.MarkDirty(ev)
				} else {
					h.l2.Insert(ev, PfNone, true)
				}
			}
		}
	case 2:
		if !h.l2.Contains(line) {
			h.fillL2(line, class)
		}
	}
}

// runL1Prefetchers fires the two L1 (DCU) prefetchers after an access.
// missed reports whether the demand access missed L1; isSeq whether
// the access belongs to a detected stream (prefetches issued in stream
// context hide latency at run-ahead depth, buddy fetches outside a
// stream are plain next-line pulls).
func (h *Hierarchy) runL1Prefetchers(line uint64, missed, isSeq bool) {
	if h.Config.L1NextLine && missed && isSeq {
		h.Stats.PfIssuedL1NL++
		h.prefetchInto(1, line+1, PfStream)
	}
	if h.Config.L1Streamer {
		depth, dir := h.l1Stream.observe(line, 4)
		for d := 1; d <= depth; d++ {
			h.Stats.PfIssuedL1St++
			h.prefetchInto(1, uint64(int64(line)+dir*int64(d)), PfStream)
		}
	}
}

// runL2Prefetchers fires the two L2 prefetchers; they observe the L2
// access stream, i.e. L1 misses. The adjacent-line prefetcher only
// fires when the access is being filled into L2 (an L2 miss) and the
// access has spatial context — Intel's dynamic throttling shuts it off
// on random-probe patterns where buddy lines are almost never used.
func (h *Hierarchy) runL2Prefetchers(line uint64, l2Missed, isSeq bool) {
	if h.Config.L2NextLine && l2Missed && isSeq {
		h.Stats.PfIssuedL2NL++
		h.prefetchInto(2, line^1, PfStream)
	}
	if h.Config.L2Streamer {
		depth, dir := h.l2Stream.observe(line, 16)
		for d := 1; d <= depth; d++ {
			h.Stats.PfIssuedL2St++
			h.prefetchInto(2, uint64(int64(line)+dir*int64(d)), PfStream)
		}
	}
}

// EffectivePrefetchDistance is the run-ahead depth (in cache lines) of
// the most aggressive enabled prefetcher. TMAM accounting uses it to
// decide how much DRAM latency a confirmed stream can hide: a
// prefetcher running d lines ahead hides d lines' worth of compute
// time (Section 9's "prefetchers are not fast enough" emerges when
// the residual latency/(MLP+d) stays visible).
func (h *Hierarchy) EffectivePrefetchDistance() float64 {
	switch {
	case h.Config.L2Streamer:
		return 16
	case h.Config.L1Streamer:
		return 4
	case h.Config.L2NextLine:
		return 1
	case h.Config.L1NextLine:
		return 1
	}
	return 0
}
