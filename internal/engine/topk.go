package engine

import (
	"sort"

	"olapmicro/internal/probe"
)

// TopRow is one ordered-output candidate of Q3/Q18Top: the group-key
// tuple plus the aggregate value.
type TopRow struct {
	Tuple []int64
	Agg   int64
}

// SortTopRows orders rows by less with the repository's deterministic
// tie-break (full tuple ascending, then the aggregate), truncates to
// limit, and folds them with the ordered-output convention: rank plus
// aggregate per checksum row, Sum over the emitted rows. The sort's
// comparison tree (half mispredicted, as comparison sorting over
// unsorted data behaves) is charged to p. Typer and Tectorwise share
// this tail: both hand the survivors to the same sort.
func SortTopRows(p *probe.Probe, rows []TopRow, limit int, keys int, less func(a, b *TopRow) bool) Result {
	tieLess := func(a, b *TopRow) bool {
		for i := range a.Tuple {
			if a.Tuple[i] != b.Tuple[i] {
				return a.Tuple[i] < b.Tuple[i]
			}
		}
		return a.Agg < b.Agg
	}
	sort.Slice(rows, func(i, j int) bool {
		if less(&rows[i], &rows[j]) {
			return true
		}
		if less(&rows[j], &rows[i]) {
			return false
		}
		return tieLess(&rows[i], &rows[j])
	})
	n := uint64(len(rows))
	if n > 1 {
		cmps := n * uint64(log2ceil(n)+1)
		p.ALU(cmps * uint64(keys+1))
		p.BranchStatic(cmps, cmps/2)
		p.Dep(cmps / 2)
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	var res Result
	out := make([]int64, 2)
	for rank := range rows {
		res.Sum += rows[rank].Agg
		out[0] = int64(rank)
		out[1] = rows[rank].Agg
		res.AddRow(out...)
	}
	return res
}

// log2ceil is ceil(log2(n)) for n >= 1.
func log2ceil(n uint64) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// Q9Key builds the composite partsupp key used by Q9's plan.
func Q9Key(partKey, suppKey int64) int64 { return partKey<<24 | suppKey }
