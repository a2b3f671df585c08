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
	page      uint64
	lastLine  uint64
	direction int64 // +1 ascending, -1 descending, 0 unknown
	conf      int8  // confidence counter; prefetch fires at >= 2
	valid     bool
}

// streamDetector is a small fully-associative table of recent streams,
// shared by the L1 and L2 streamer models.
type streamDetector struct {
	entries [16]streamEntry
	next    int
}

// linesPerPage for 4 KiB pages and 64 B lines.
const linesPerPage = 64

// observe feeds a demand line access into the detector. It returns
// (depth>0) when a stream is confirmed, where depth is how many lines
// ahead the prefetcher should run, and dir is the stream direction.
func (d *streamDetector) observe(line uint64, maxDepth int) (depth int, dir int64) {
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
	d.entries[d.next] = streamEntry{page: page, lastLine: line, valid: true}
	d.next = (d.next + 1) % len(d.entries)
	return 0, 0
}

func (d *streamDetector) reset() {
	*d = streamDetector{}
}
