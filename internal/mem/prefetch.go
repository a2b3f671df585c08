package mem

// PrefetcherConfig selects which of the four hardware prefetchers are
// enabled, mirroring the four disable bits of MSR 0x1A4 on Intel
// processors (Section 9 of the paper flips exactly these).
type PrefetcherConfig struct {
	L1NextLine bool // DCU prefetcher: fetches the next line into L1
	L1Streamer bool // DCU IP prefetcher: stride/stream detection into L1
	L2NextLine bool // adjacent-line prefetcher: pairs lines into L2
	L2Streamer bool // L2 stream prefetcher: runs ahead of a detected stream
}

// AllPrefetchers enables all four prefetchers (the machine default).
func AllPrefetchers() PrefetcherConfig {
	return PrefetcherConfig{L1NextLine: true, L1Streamer: true, L2NextLine: true, L2Streamer: true}
}

// NoPrefetchers disables all four prefetchers.
func NoPrefetchers() PrefetcherConfig { return PrefetcherConfig{} }

// String names the configuration the way the paper's Figure 26 labels
// its six bars.
func (c PrefetcherConfig) String() string {
	switch c {
	case PrefetcherConfig{}:
		return "All disabled"
	case PrefetcherConfig{L1NextLine: true}:
		return "L1 NL"
	case PrefetcherConfig{L1Streamer: true}:
		return "L1 Str."
	case PrefetcherConfig{L2NextLine: true}:
		return "L2 NL"
	case PrefetcherConfig{L2Streamer: true}:
		return "L2 Str."
	case AllPrefetchers():
		return "All enabled"
	}
	s := "custom["
	if c.L1NextLine {
		s += " L1NL"
	}
	if c.L1Streamer {
		s += " L1Str"
	}
	if c.L2NextLine {
		s += " L2NL"
	}
	if c.L2Streamer {
		s += " L2Str"
	}
	return s + " ]"
}

// Figure26Configs returns the six configurations of the paper's
// prefetcher study, in figure order.
func Figure26Configs() []PrefetcherConfig {
	return []PrefetcherConfig{
		NoPrefetchers(),
		{L1NextLine: true},
		{L1Streamer: true},
		{L2NextLine: true},
		{L2Streamer: true},
		AllPrefetchers(),
	}
}

// streamEntry tracks one in-flight access stream within a 4 KiB page,
// the granularity at which Intel's stream prefetchers operate.
type streamEntry struct {
	lastLine  uint64
	direction int64 // +1 ascending, -1 descending, 0 unknown
	conf      int8  // confidence counter; prefetch fires at >= 2
}

// streamDetector is a small fully-associative table of recent streams,
// shared by the L1 and L2 streamer models.
type streamDetector struct {
	// keys holds each entry's page + 1, 0 for an empty entry, apart
	// from the entries so the scan reads 128 contiguous bytes.
	keys    [16]uint64
	entries [16]streamEntry
	next    int
	last    int // the entry of the last match or allocation, checked first
}

// linesPerPage for 4 KiB pages and 64 B lines.
const linesPerPage = 64

// observe feeds a demand line access into the detector. It returns
// (depth>0) when a stream is confirmed, where depth is how many lines
// ahead the prefetcher should run, and dir is the stream direction.
func (d *streamDetector) observe(line uint64, maxDepth int) (depth int, dir int64) {
	key := line/linesPerPage + 1
	e := &d.entries[d.last]
	if d.keys[d.last] != key {
		if e = d.find(key); e == nil {
			// New page: allocate round-robin.
			d.keys[d.next], d.entries[d.next] = key, streamEntry{lastLine: line}
			d.last = d.next
			d.next = (d.next + 1) % len(d.entries)
			return 0, 0
		}
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

// find returns the entry whose key is key, or nil, and makes it the
// last match. observe allocates an entry only for a page no entry
// tracks, so a page has at most one: the last match, when it tracks
// the page, is the entry this scan would return.
func (d *streamDetector) find(key uint64) *streamEntry {
	for i, k := range &d.keys {
		if k == key {
			d.last = i
			return &d.entries[i]
		}
	}
	return nil
}

func (d *streamDetector) reset() {
	*d = streamDetector{}
}
