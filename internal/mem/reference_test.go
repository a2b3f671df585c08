package mem

import "olapmicro/internal/hw"

// This file keeps the tick-LRU cache, hierarchy and stream detector the
// recency-list cache replaced, renamed but otherwise unchanged, as the
// oracle FuzzHierarchy compares the production code against. Every
// Stats counter and every residency must match after each operation.

const refInvalidTag = ^uint64(0)

// refCache is one set-associative cache level with LRU replacement.
// Tags are stored per way in a flat array; the zero value is not
// usable, construct with newRefCache.
type refCache struct {
	sets  uint64
	ways  int
	tags  []uint64 // sets*ways entries
	dirty []bool
	pf    []PfClass // how the line was installed (cleared on demand hit)
	lru   []uint32
	tick  uint32
	mask  uint64 // sets-1 when sets is a power of two above 1, else 0
}

// newRefCache builds a cache from a geometry description.
func newRefCache(g hw.CacheGeometry) *refCache {
	sets := uint64(g.Sets())
	if sets == 0 {
		sets = 1
	}
	c := &refCache{
		sets:  sets,
		ways:  g.Ways,
		tags:  make([]uint64, sets*uint64(g.Ways)),
		dirty: make([]bool, sets*uint64(g.Ways)),
		pf:    make([]PfClass, sets*uint64(g.Ways)),
		lru:   make([]uint32, sets*uint64(g.Ways)),
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	for i := range c.tags {
		c.tags[i] = refInvalidTag
	}
	return c
}

// set returns the index of the first way of line's set. A power-of-two
// set count (L1D and L2 on both machines) takes the mask, not a 64-bit
// division.
func (c *refCache) set(line uint64) int {
	if c.mask != 0 {
		return int(line&c.mask) * c.ways
	}
	return int(line%c.sets) * c.ways
}

// find is the one set scan: the index of line's way, or -1.
func (c *refCache) find(line uint64) int {
	base := c.set(line)
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return base + w
		}
	}
	return -1
}

// Lookup probes the cache for a line address. On a hit it refreshes
// LRU state, clears the prefetched tag, and reports how the line was
// originally installed.
func (c *refCache) Lookup(line uint64) (hit bool, was PfClass) {
	c.tick++
	i := c.find(line)
	if i < 0 {
		return false, PfNone
	}
	c.lru[i] = c.tick
	was, c.pf[i] = c.pf[i], PfNone
	return true, was
}

// Contains reports presence without touching LRU or prefetch state.
func (c *refCache) Contains(line uint64) bool { return c.find(line) >= 0 }

// Insert installs a line, evicting the LRU victim of its set.
// It returns the evicted line address and whether it was dirty;
// evictedValid is false when an invalid way was used.
func (c *refCache) Insert(line uint64, asPrefetch PfClass, dirty bool) (evicted uint64, evictedDirty, evictedValid bool) {
	base := c.set(line)
	victim, oldest := base, c.lru[base]
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == refInvalidTag {
			victim = base + w
			break
		}
		if c.lru[base+w] < oldest {
			victim, oldest = base+w, c.lru[base+w]
		}
	}
	if c.tags[victim] != refInvalidTag {
		evicted = c.tags[victim]
		evictedDirty = c.dirty[victim]
		evictedValid = true
	}
	c.tick++
	c.tags[victim] = line
	c.dirty[victim] = dirty
	c.pf[victim] = asPrefetch
	c.lru[victim] = c.tick
	return evicted, evictedDirty, evictedValid
}

// MarkDirty sets the dirty bit of a resident line and reports whether
// the line was resident; an absent line is left absent.
func (c *refCache) MarkDirty(line uint64) bool {
	i := c.find(line)
	if i >= 0 {
		c.dirty[i] = true
	}
	return i >= 0
}

// Reset empties the cache.
func (c *refCache) Reset() {
	for i := range c.tags {
		c.tags[i] = refInvalidTag
		c.dirty[i] = false
		c.pf[i] = PfNone
		c.lru[i] = 0
	}
	c.tick = 0
}

// refHierarchy is a single core's view of the memory system: private
// L1D and L2, a shared (but per-run exclusive) L3, the four hardware
// prefetchers, and DRAM-traffic accounting.
type refHierarchy struct {
	Config PrefetcherConfig

	levels [3]*refCache // L1D, L2, L3: level i misses into level i+1, L3 into DRAM

	// classifier is always on: it classifies each demand access as
	// sequential or random for TMAM, and it also drives the L1 streamer,
	// which would see the same lines from the same reset state.
	classifier refStreamDetector
	l2Stream   refStreamDetector // drives the L2 streamer

	Stats Stats
}

// newRefHierarchy builds the hierarchy for a machine with the given
// prefetcher configuration.
func newRefHierarchy(m *hw.Machine, cfg PrefetcherConfig) *refHierarchy {
	return &refHierarchy{
		Config: cfg,
		levels: [3]*refCache{newRefCache(m.L1D), newRefCache(m.L2), newRefCache(m.L3)},
	}
}

// Reset clears all cache contents, detectors and statistics.
func (h *refHierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
	h.l2Stream.reset()
	h.classifier.reset()
	h.Stats = Stats{}
}

// ResetStats clears statistics but keeps cache contents warm, which is
// how the paper measures (one minute warm-up before profiling).
func (h *refHierarchy) ResetStats() { h.Stats = Stats{} }

// Load performs a demand load of size bytes at addr, touching every
// spanned cache line.
func (h *refHierarchy) Load(addr, size uint64) { h.span(addr, size, false, false) }

// LoadIndep performs a demand load whose address does not depend on a
// prior load (a sparse filtered column read): DRAM misses it causes
// are accounted with the deeper independent-load MLP.
func (h *refHierarchy) LoadIndep(addr, size uint64) { h.span(addr, size, false, true) }

// Store performs a demand store of size bytes at addr (write-allocate).
func (h *refHierarchy) Store(addr, size uint64) { h.span(addr, size, true, false) }

// span runs one demand access per cache line of [addr, addr+size).
func (h *refHierarchy) span(addr, size uint64, store, indep bool) {
	last := (addr + size - 1) >> lineShift
	for line := addr >> lineShift; line <= last; line++ {
		h.access(line, store, indep)
	}
}

// access is the demand path: the first level that hits (L1D, L2, L3,
// else DRAM) serves the line, every nearer level is filled from it,
// outermost first, and then the prefetchers observe the access.
func (h *refHierarchy) access(line uint64, store, indep bool) {
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
func (h *refHierarchy) countHit(level int, class PfClass) {
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
func (h *refHierarchy) fill(level int, line uint64, class PfClass, dirty bool) {
	ev, evDirty, ok := h.levels[level].Insert(line, class, dirty)
	if !ok || !evDirty {
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
func (h *refHierarchy) prefetchInto(target int, line uint64, class PfClass) {
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
func (h *refHierarchy) runL1Prefetchers(line uint64, missed bool, depth int, dir int64) {
	if h.Config.L1NextLine && missed && depth > 0 {
		h.Stats.PfIssuedL1NL++
		h.prefetchInto(0, line+1, PfStream)
	}
	if h.Config.L1Streamer {
		for d := 1; d <= depth; d++ {
			h.Stats.PfIssuedL1St++
			h.prefetchInto(0, uint64(int64(line)+dir*int64(d)), PfStream)
		}
	}
}

// runL2Prefetchers fires the two L2 prefetchers; they observe the L2
// access stream, i.e. L1 misses. The adjacent-line prefetcher only
// fires when the access is being filled into L2 (an L2 miss) and the
// access has spatial context — Intel's dynamic throttling shuts it off
// on random-probe patterns where buddy lines are almost never used.
func (h *refHierarchy) runL2Prefetchers(line uint64, l2Missed, isSeq bool) {
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

// refStreamEntry tracks one in-flight access stream within a 4 KiB page,
// the granularity at which Intel's stream prefetchers operate.
type refStreamEntry struct {
	page      uint64
	lastLine  uint64
	direction int64 // +1 ascending, -1 descending, 0 unknown
	conf      int8  // confidence counter; prefetch fires at >= 2
	valid     bool
}

// refStreamDetector is a small fully-associative table of recent streams,
// shared by the L1 and L2 streamer models.
type refStreamDetector struct {
	entries [16]refStreamEntry
	next    int
}

// observe feeds a demand line access into the detector. It returns
// (depth>0) when a stream is confirmed, where depth is how many lines
// ahead the prefetcher should run, and dir is the stream direction.
func (d *refStreamDetector) observe(line uint64, maxDepth int) (depth int, dir int64) {
	page := line / linesPerPage
	for i := range d.entries {
		e := &d.entries[i]
		if !e.valid || e.page != page {
			continue
		}
		step := int64(line) - int64(e.lastLine)
		if step == 0 {
			return 0, 0 // same line again; no new information
		}
		sign := int64(1)
		if step < 0 {
			sign = -1
		}
		// Intel stream prefetchers track monotonic access within a
		// page and tolerate small strides (sparse ascending scans such
		// as a 10 %-selective filter's candidate loads still train
		// them; they simply overfetch the skipped lines).
		if step*sign <= 4 { // monotonic, stride <= 4 lines
			if e.direction == sign {
				if e.conf < 8 {
					e.conf++
				}
			} else {
				e.direction = sign
				e.conf = 1
			}
		} else {
			e.conf = 0
			e.direction = sign
		}
		e.lastLine = line
		if e.conf >= 2 {
			depth = int(e.conf) * 2
			if depth > maxDepth {
				depth = maxDepth
			}
			return depth, e.direction
		}
		return 0, 0
	}
	// New page: allocate round-robin.
	d.entries[d.next] = refStreamEntry{page: page, lastLine: line, valid: true}
	d.next = (d.next + 1) % len(d.entries)
	return 0, 0
}

func (d *refStreamDetector) reset() {
	*d = refStreamDetector{}
}
