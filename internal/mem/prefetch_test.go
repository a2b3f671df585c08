package mem

import "testing"

// MSR 0x1A4 bit layout (Intel "Disclosure of Hardware Prefetcher
// Control"): a SET bit DISABLES the corresponding prefetcher.
const (
	msrBitL2Streamer = 1 << 0 // L2 hardware prefetcher
	msrBitL2NextLine = 1 << 1 // L2 adjacent cache line prefetcher
	msrBitL1NextLine = 1 << 2 // DCU prefetcher
	msrBitL1Streamer = 1 << 3 // DCU IP prefetcher
)

// msr encodes a configuration as the value the paper's experiment
// writes to MSR 0x1A4.
func msr(c PrefetcherConfig) uint64 {
	var v uint64
	if !c.L2Streamer {
		v |= msrBitL2Streamer
	}
	if !c.L2NextLine {
		v |= msrBitL2NextLine
	}
	if !c.L1NextLine {
		v |= msrBitL1NextLine
	}
	if !c.L1Streamer {
		v |= msrBitL1Streamer
	}
	return v
}

// TestMSRFigure26Encoding pins the value written to MSR 0x1A4 for each
// bar of the paper's Figure 26: a set bit disables a prefetcher.
func TestMSRFigure26Encoding(t *testing.T) {
	want := map[string]uint64{
		"All disabled": 0xf,
		"L1 NL":        0xb,
		"L1 Str.":      0x7,
		"L2 NL":        0xd,
		"L2 Str.":      0xe,
		"All enabled":  0x0,
	}
	for _, cfg := range Figure26Configs() {
		if got, w := msr(cfg), want[cfg.String()]; got != w {
			t.Errorf("%s: MSR = %#x, want %#x", cfg, got, w)
		}
	}
}

func TestMSRAllDisabledSetsAllBits(t *testing.T) {
	if got := msr(NoPrefetchers()); got != 0xF {
		t.Fatalf("all-disabled MSR = %#x, want 0xF", got)
	}
	if got := msr(AllPrefetchers()); got != 0 {
		t.Fatalf("all-enabled MSR = %#x, want 0", got)
	}
}

func TestFigure26ConfigsOrder(t *testing.T) {
	cfgs := Figure26Configs()
	if len(cfgs) != 6 {
		t.Fatalf("expected 6 configurations, got %d", len(cfgs))
	}
	if cfgs[0] != NoPrefetchers() || cfgs[5] != AllPrefetchers() {
		t.Fatal("figure order must start all-disabled and end all-enabled")
	}
	names := []string{"All disabled", "L1 NL", "L1 Str.", "L2 NL", "L2 Str.", "All enabled"}
	for i, c := range cfgs {
		if c.String() != names[i] {
			t.Errorf("config %d named %q, want %q", i, c.String(), names[i])
		}
	}
}

func TestStreamDetectorConfirmsAscendingRun(t *testing.T) {
	var d streamDetector
	confirmed := false
	for l := uint64(100); l < 110; l++ {
		if depth, dir := d.observe(l, 16); depth > 0 {
			confirmed = true
			if dir != 1 {
				t.Fatalf("ascending stream reported direction %d", dir)
			}
		}
	}
	if !confirmed {
		t.Fatal("10 consecutive lines must confirm a stream")
	}
}

func TestStreamDetectorDescending(t *testing.T) {
	var d streamDetector
	confirmed := false
	for l := uint64(200); l > 190; l-- {
		if depth, dir := d.observe(l, 16); depth > 0 {
			confirmed = true
			if dir != -1 {
				t.Fatalf("descending stream reported direction %d", dir)
			}
		}
	}
	if !confirmed {
		t.Fatal("descending run must confirm a stream")
	}
}

func TestStreamDetectorIgnoresRandom(t *testing.T) {
	var d streamDetector
	addrs := []uint64{5, 900, 17, 40000, 3, 777, 123456, 42}
	for _, a := range addrs {
		if depth, _ := d.observe(a, 16); depth > 0 {
			t.Fatalf("random address %d confirmed a stream", a)
		}
	}
}

func TestStreamDetectorToleratesSparseStride(t *testing.T) {
	// A 10%-selective filtered scan touches lines with gaps of 1-3;
	// the detector must still confirm (Intel streamers do).
	var d streamDetector
	confirmed := false
	line := uint64(1000)
	for i := 0; i < 20; i++ {
		line += uint64(1 + i%3)
		if depth, _ := d.observe(line, 16); depth > 0 {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatal("sparse ascending run must confirm a stream")
	}
}

func TestStreamDetectorPageBounded(t *testing.T) {
	// Streams are tracked per 4 KiB page: a jump to a new page must
	// not inherit confirmation instantly.
	var d streamDetector
	for l := uint64(0); l < 10; l++ {
		d.observe(l, 16)
	}
	if depth, _ := d.observe(10*linesPerPage, 16); depth > 0 {
		t.Fatal("first access to a fresh page must not be confirmed")
	}
}
