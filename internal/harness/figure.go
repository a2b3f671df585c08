package harness

import (
	"fmt"
	"strings"
)

// Figure is one reproduced paper figure or table: an ordered set of
// measured series plus free-form notes (the in-text claims attached to
// that figure).
type Figure struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// String renders the figure as an aligned text table with both
// breakdown levels, response time and measured bandwidth — everything
// any of the paper's plots shows.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s %-12s %8s %7s | %6s %6s %6s %6s %6s | %10s %8s\n",
		"system", "point", "retire%", "stall%",
		"exec", "dcache", "decode", "icache", "brmisp", "time(ms)", "BW(GB/s)")
	for _, s := range f.Series {
		bd := s.Profile.Breakdown
		e, d, dec, ic, br := bd.StallShares()
		fmt.Fprintf(&b, "%-12s %-12s %8.1f %7.1f | %6.1f %6.1f %6.1f %6.1f %6.1f | %10.2f %8.2f\n",
			s.System, s.Label,
			100*bd.RetiringRatio(), 100*bd.StallRatio(),
			100*e, 100*d, 100*dec, 100*ic, 100*br,
			s.Profile.Milliseconds(), s.Profile.BandwidthGBs)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated rows for plotting:
// system,point,retiring,stall,exec,dcache,decode,icache,brmisp,ms,gbs
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("system,point,retiring,stall,exec,dcache,decode,icache,brmisp,ms,gbs\n")
	for _, s := range f.Series {
		bd := s.Profile.Breakdown
		e, d, dec, ic, br := bd.StallShares()
		fmt.Fprintf(&b, "%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			s.System, s.Label, bd.RetiringRatio(), bd.StallRatio(),
			e, d, dec, ic, br, s.Profile.Milliseconds(), s.Profile.BandwidthGBs)
	}
	return b.String()
}
