package relop

import (
	"fmt"

	"olapmicro/internal/storage"
)

// GroupPath names the grouping a compiled plan runs: "hashed", or
// "direct" with how rejected rows leave the fold — "discard" (the
// chunked code vector) or "selection" — its code count and its lanes.
func (p *FastPlan) GroupPath() string {
	g := p.codes
	switch {
	case !p.grouped:
		return "ungrouped"
	case g == nil:
		return "hashed"
	}
	how := "selection"
	if g.chunked {
		how = "discard"
	}
	return fmt.Sprintf("direct/%s/%d codes/%d lanes", how, g.codes, g.lanes+1)
}

// IntsOf builds a column's host values from v.
func IntsOf(v []int64) *storage.Ints { return intsOf(v) }
