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
	Config PrefetcherConfig

	levels [3]*Cache // L1D, L2, L3: level i misses into level i+1, L3 into DRAM

	// classifier is always on: it classifies each demand access as
	// sequential or random for TMAM, and it also drives the L1 streamer,
	// which would see the same lines from the same reset state.
	classifier streamDetector
	l2Stream   streamDetector // drives the L2 streamer

	// l1Win holds lines the L1 streamer knows are in L1D, for which
	// prefetchInto would do nothing. fill drops it when L1D evicts one.
	l1Win lineRange

	Stats Stats
}

// lineRange is the half-open line interval [lo, end); it is empty when
// lo >= end, as the zero value is.
type lineRange struct{ lo, end uint64 }

func (r lineRange) holds(line uint64) bool { return r.lo <= line && line < r.end }

// add extends the range by line when line borders it, else makes the
// range line alone.
func (r *lineRange) add(line uint64) {
	switch {
	case line+1 == r.lo:
		r.lo = line
	case line == r.end:
		r.end = line + 1
	default:
		*r = lineRange{line, line + 1}
	}
}

// NewHierarchy builds the hierarchy for a machine with the given
// prefetcher configuration.
func NewHierarchy(m *hw.Machine, cfg PrefetcherConfig) *Hierarchy {
	return &Hierarchy{
		Config: cfg,
		levels: [3]*Cache{NewCache(m.L1D), NewCache(m.L2), NewCache(m.L3)},
	}
}

// Reset clears all cache contents, detectors and statistics.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
	h.l2Stream.reset()
	h.classifier.reset()
	h.l1Win = lineRange{}
	h.Stats = Stats{}
}

// ResetStats clears statistics but keeps cache contents warm, which is
// how the paper measures (one minute warm-up before profiling).
func (h *Hierarchy) ResetStats() { h.Stats = Stats{} }

const lineShift = 6 // 64-byte lines on both machines

// Load performs a demand load of size bytes at addr, touching every
// spanned cache line.
func (h *Hierarchy) Load(addr, size uint64) { h.span(addr, size, false, false) }

// LoadIndep performs a demand load whose address does not depend on a
// prior load (a sparse filtered column read): DRAM misses it causes
// are accounted with the deeper independent-load MLP.
func (h *Hierarchy) LoadIndep(addr, size uint64) { h.span(addr, size, false, true) }

// Store performs a demand store of size bytes at addr (write-allocate).
func (h *Hierarchy) Store(addr, size uint64) { h.span(addr, size, true, false) }

// span runs one demand access per cache line of [addr, addr+size).
func (h *Hierarchy) span(addr, size uint64, store, indep bool) {
	last := (addr + size - 1) >> lineShift
	for line := addr >> lineShift; line <= last; line++ {
		h.access(line, store, indep)
	}
}

// access is the demand path: the first level that hits (L1D, L2, L3,
// else DRAM) serves the line, every nearer level is filled from it,
// outermost first, and then the prefetchers observe the access.
func (h *Hierarchy) access(line uint64, store, indep bool) {
	if store {
		h.Stats.Stores++
	} else {
		h.Stats.Loads++
	}

	// Always-on classifier: is this access part of a stream?
	seqDepth, dir := h.classifier.observe(line, 16)
	isSeq := seqDepth > 0

	level := 0
	for ; level < len(h.levels); level++ {
		if hit, pf := h.levels[level].Lookup(line); hit {
			h.countHit(level, pf)
			break
		}
	}
	switch {
	case level == 0:
		if store {
			h.levels[0].MarkDirty(line)
		}
	case level == len(h.levels):
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
	}
	for i := level - 1; i >= 0; i-- {
		h.fill(i, line, PfNone, store && i == 0)
	}
	h.runL1Prefetchers(line, level > 0, min(seqDepth, 4), dir)
	if level > 0 {
		h.runL2Prefetchers(line, level > 1, isSeq)
	}
}

// countHit attributes a demand hit at a level (0 is L1D) and, for a
// prefetched line, to the prefetch context that installed it.
func (h *Hierarchy) countHit(level int, class PfClass) {
	s := &h.Stats
	hits, pfHits := &s.L1Hits, &s.L1PfHits
	switch level {
	case 1:
		hits, pfHits = &s.L2Hits, &s.L2PfHits
	case 2:
		hits, pfHits = &s.L3Hits, &s.L3PfHits
	}
	*hits++
	switch class {
	case PfStream:
		*pfHits++
	case PfNextLine:
		s.NLPfHits++
	}
}

// fill installs a line into a level. A dirty victim of L3 is written to
// DRAM; a dirty victim of L1D or L2 is written back into the next level,
// where it is marked dirty if resident and installed otherwise. That
// install's own victim is dropped, so a dirty line it evicts never
// reaches BytesToMem; in the paper's experiments this loses well under
// 1 % of write-backs, and counting it would move every figure.
func (h *Hierarchy) fill(level int, line uint64, class PfClass, dirty bool) {
	ev, evDirty, ok := h.levels[level].Insert(line, class, dirty)
	if !ok {
		return
	}
	if level == 0 && h.l1Win.holds(ev) {
		h.l1Win = lineRange{}
	}
	if !evDirty {
		return
	}
	if level == len(h.levels)-1 {
		h.Stats.BytesToMem += hw.Line
		return
	}
	if next := h.levels[level+1]; !next.MarkDirty(ev) {
		next.Insert(ev, PfNone, true)
	}
}

// prefetchInto brings a line into the target level (0 is L1D, 1 is L2)
// as a prefetch of the given class. A line no level holds is fetched
// from DRAM into L3 first. The levels are not inclusive, so a line
// held only by a level nearer than the target is still installed there.
func (h *Hierarchy) prefetchInto(target int, line uint64, class PfClass) {
	near := 0
	for near < len(h.levels) && !h.levels[near].Contains(line) {
		near++
	}
	if near == len(h.levels) {
		h.Stats.BytesFromMem += hw.Line
		if class == PfStream {
			h.Stats.PfFillsStream++
		} else {
			h.Stats.PfFillsNL++
		}
		h.fill(near-1, line, PfNone, false)
	}
	if near > target || (near < target && !h.levels[target].Contains(line)) {
		h.fill(target, line, class, false)
	}
}

// runL1Prefetchers fires the two L1 (DCU) prefetchers after an access.
// missed reports whether the demand access missed L1; depth and dir are
// the classifier's stream for the access clamped to the L1 streamer's
// run-ahead of 4 lines, depth 0 outside a detected stream (prefetches
// issued in stream context hide latency at run-ahead depth, buddy
// fetches outside a stream are plain next-line pulls).
func (h *Hierarchy) runL1Prefetchers(line uint64, missed bool, depth int, dir int64) {
	if h.Config.L1NextLine && missed && depth > 0 {
		h.Stats.PfIssuedL1NL++
		h.prefetchInto(0, line+1, PfStream)
	}
	if h.Config.L1Streamer && depth > 0 {
		// A steady stream asks again for most of the lines the previous
		// access issued. Keep the part of the memo inside this window,
		// skip the lines it holds and add each line prefetched.
		h.Stats.PfIssuedL1St += uint64(depth)
		first, last := uint64(int64(line)+dir), uint64(int64(line)+dir*int64(depth))
		w := &h.l1Win
		w.lo, w.end = max(w.lo, min(first, last)), min(w.end, max(first, last)+1)
		for d := 1; d <= depth; d++ {
			if l := uint64(int64(line) + dir*int64(d)); !w.holds(l) {
				h.prefetchInto(0, l, PfStream)
				w.add(l)
			}
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
		h.prefetchInto(1, line^1, PfStream)
	}
	if h.Config.L2Streamer {
		depth, dir := h.l2Stream.observe(line, 16)
		for d := 1; d <= depth; d++ {
			h.Stats.PfIssuedL2St++
			h.prefetchInto(1, uint64(int64(line)+dir*int64(d)), PfStream)
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
