// Package mem simulates the memory hierarchy of the machines in
// internal/hw: set-associative L1D/L2/L3 caches with LRU replacement,
// the four Intel hardware prefetchers (L1 next-line, L1 streamer,
// L2 next-line, L2 streamer) with MSR-0x1A4-style control, and
// DRAM-traffic accounting used to report memory bandwidth the same way
// the paper's VTune memory-access analysis does.
package mem

import "olapmicro/internal/hw"

const invalidTag = ^uint64(0)

// PfClass tags how a line entered a cache.
type PfClass uint8

const (
	// PfNone marks demand-fetched lines.
	PfNone PfClass = iota
	// PfStream marks lines installed by a prefetcher on a detected
	// sequential stream.
	PfStream
	// PfNextLine marks lines installed by a next-line/adjacent-line
	// prefetcher outside any stream (e.g. the buddy of a random probe).
	PfNextLine
)

// Cache is one set-associative cache level with LRU replacement.
// Tags are stored per way in a flat array; the zero value is not
// usable, construct with NewCache.
type Cache struct {
	sets  uint64
	ways  int
	tags  []uint64 // sets*ways entries
	dirty []bool
	pf    []PfClass // how the line was installed (cleared on demand hit)
	lru   []uint32
	tick  uint32
	mask  uint64 // sets-1 when sets is a power of two above 1, else 0
}

// NewCache builds a cache from a geometry description.
func NewCache(g hw.CacheGeometry) *Cache {
	sets := uint64(g.Sets())
	if sets == 0 {
		sets = 1
	}
	c := &Cache{
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
		c.tags[i] = invalidTag
	}
	return c
}

// set returns the index of the first way of line's set. A power-of-two
// set count (L1D and L2 on both machines) takes the mask, not a 64-bit
// division.
func (c *Cache) set(line uint64) int {
	if c.mask != 0 {
		return int(line&c.mask) * c.ways
	}
	return int(line%c.sets) * c.ways
}

// find is the one set scan: the index of line's way, or -1.
func (c *Cache) find(line uint64) int {
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
func (c *Cache) Lookup(line uint64) (hit bool, was PfClass) {
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
func (c *Cache) Contains(line uint64) bool { return c.find(line) >= 0 }

// Insert installs a line, evicting the LRU victim of its set.
// It returns the evicted line address and whether it was dirty;
// evictedValid is false when an invalid way was used.
func (c *Cache) Insert(line uint64, asPrefetch PfClass, dirty bool) (evicted uint64, evictedDirty, evictedValid bool) {
	base := c.set(line)
	victim, oldest := base, c.lru[base]
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == invalidTag {
			victim = base + w
			break
		}
		if c.lru[base+w] < oldest {
			victim, oldest = base+w, c.lru[base+w]
		}
	}
	if c.tags[victim] != invalidTag {
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
func (c *Cache) MarkDirty(line uint64) bool {
	i := c.find(line)
	if i >= 0 {
		c.dirty[i] = true
	}
	return i >= 0
}

// Reset empties the cache.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.dirty[i] = false
		c.pf[i] = PfNone
		c.lru[i] = 0
	}
	c.tick = 0
}
