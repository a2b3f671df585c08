// Package mem simulates the memory hierarchy of the machines in
// internal/hw: set-associative L1D/L2/L3 caches with LRU replacement,
// the four Intel hardware prefetchers (L1 next-line, L1 streamer,
// L2 next-line, L2 streamer) with MSR-0x1A4-style control, and
// DRAM-traffic accounting used to report memory bandwidth the same way
// the paper's VTune memory-access analysis does.
package mem

import (
	"math/bits"

	"olapmicro/internal/hw"
)

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
// Each set keeps an exact recency list of its ways, a doubly linked
// list from the most recently used way (head) to the least recently
// used one (tail): a hit moves its way to the front and a full set's
// victim is its tail, both in constant time. Ways only become invalid
// at Reset and Insert takes the first invalid one, so the valid ways
// are a prefix of each set whose length the set records: find scans
// only that prefix, and an Insert into a set that is not full takes
// the way after it. The zero value is not usable, construct with
// NewCache.
type Cache struct {
	sets  uint64
	ways  int
	tags  []uint64 // sets*ways entries, way w of set s at s*ways+w
	dirty []bool
	pf    []PfClass // how the line was installed (cleared on demand hit)
	link  []wayLink // recency-list neighbours of each valid way
	meta  []setMeta
	mask  uint64 // sets-1 when sets is a power of two above 1, else 0
	recip uint64 // ^uint64(0)/sets + 1, see set
}

// wayLink holds a way's neighbours in its set's recency list, as way
// offsets within the set: prv is more recently used, nxt less.
type wayLink struct{ prv, nxt uint8 }

// setMeta is a set's recency-list ends and its number of valid ways.
type setMeta struct{ head, tail, n uint8 }

// NewCache builds a cache from a geometry description. The recency
// list addresses ways in a byte, so a set has at most 255 ways.
func NewCache(g hw.CacheGeometry) *Cache {
	if g.Ways > 255 {
		panic("mem: a cache set holds at most 255 ways")
	}
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
		link:  make([]wayLink, sets*uint64(g.Ways)),
		meta:  make([]setMeta, sets),
		recip: ^uint64(0)/sets + 1,
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	return c
}

// set returns line's set. A power-of-two set count (L1D and L2 on both
// machines) takes the mask. Below 2³² a line takes Lemire's
// remainder by multiplication, exact for a 32-bit line and set count
// (every simulated set count is far below 2³²); only a line above that
// pays the 64-bit division.
func (c *Cache) set(line uint64) int {
	switch {
	case c.mask != 0:
		return int(line & c.mask)
	case line < 1<<32:
		hi, _ := bits.Mul64(c.recip*line, c.sets)
		return int(hi)
	}
	return int(line % c.sets)
}

// find is the one set scan: line's set and the index of its way, or -1.
func (c *Cache) find(line uint64) (s, i int) {
	s = c.set(line)
	base := s * c.ways
	for w, tag := range c.tags[base : base+int(c.meta[s].n)] {
		if tag == line {
			return s, base + w
		}
	}
	return s, -1
}

// touch moves way i of set s to the front of the set's recency list.
func (c *Cache) touch(s, i int) {
	m, base := &c.meta[s], s*c.ways
	w := uint8(i - base)
	if w == m.head {
		return
	}
	l := c.link[i]
	c.link[base+int(l.prv)].nxt = l.nxt
	if w == m.tail {
		m.tail = l.prv
	} else {
		c.link[base+int(l.nxt)].prv = l.prv
	}
	c.link[i].nxt = m.head
	c.link[base+int(m.head)].prv = w
	m.head = w
}

// Lookup probes the cache for a line address. On a hit it makes the
// line the most recently used of its set, clears the prefetched tag,
// and reports how the line was originally installed.
func (c *Cache) Lookup(line uint64) (hit bool, was PfClass) {
	s, i := c.find(line)
	if i < 0 {
		return false, PfNone
	}
	c.touch(s, i)
	was, c.pf[i] = c.pf[i], PfNone
	return true, was
}

// Contains reports presence without touching LRU or prefetch state.
func (c *Cache) Contains(line uint64) bool {
	_, i := c.find(line)
	return i >= 0
}

// Insert installs a line as the most recently used of its set: into
// the set's first invalid way, or else in place of its least recently
// used line. It returns the evicted line address and whether it was
// dirty; evictedValid is false when an invalid way was used.
func (c *Cache) Insert(line uint64, asPrefetch PfClass, dirty bool) (evicted uint64, evictedDirty, evictedValid bool) {
	s := c.set(line)
	m, base := &c.meta[s], s*c.ways
	var i int
	if w := m.n; int(w) < c.ways {
		i = base + int(w)
		if w == 0 {
			m.tail = w
		} else {
			c.link[base+int(m.head)].prv = w
		}
		c.link[i].nxt = m.head
		m.head = w
		m.n++
	} else {
		i = base + int(m.tail)
		evicted, evictedDirty, evictedValid = c.tags[i], c.dirty[i], true
		c.touch(s, i)
	}
	c.tags[i] = line
	c.dirty[i] = dirty
	c.pf[i] = asPrefetch
	return evicted, evictedDirty, evictedValid
}

// MarkDirty sets the dirty bit of a resident line and reports whether
// the line was resident; an absent line is left absent.
func (c *Cache) MarkDirty(line uint64) bool {
	_, i := c.find(line)
	if i >= 0 {
		c.dirty[i] = true
	}
	return i >= 0
}

// Reset empties the cache. Only the valid-way counts need clearing:
// ways past a set's count are never read before Insert rewrites them.
func (c *Cache) Reset() { clear(c.meta) }
