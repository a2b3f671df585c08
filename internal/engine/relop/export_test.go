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

// form names a join index's form: "unique", "direct" (the CSR over key
// spans) or "hashed".
func (x *joinIndex) form() string {
	switch {
	case x.at != nil:
		return "unique"
	case x.hashed:
		return "hashed"
	}
	return "direct"
}

// bytes counts a join index's arrays, whichever form it takes.
func (x *joinIndex) bytes() int {
	return 4*len(x.at) + 4*len(x.start) + 4*len(x.rows) + 8*len(x.keys)
}

// JoinForms names each join's index form, in join order (see form).
func (p *FastPlan) JoinForms() []string {
	forms := make([]string, len(p.joins))
	for i, j := range p.joins {
		forms[i] = j.idx.form()
	}
	return forms
}
