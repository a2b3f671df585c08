package relop

import (
	"olapmicro/internal/join"
	"olapmicro/internal/probe"
	"olapmicro/internal/storage"
	"olapmicro/internal/tpch"
)

// GroupTable is the shared probed group-by table with full-tuple group
// identity. The mixed GroupKey only buckets: distinct key tuples whose
// mixed keys collide chain as separate entries (join.Table chains
// duplicate keys), so aggregation never merges unequal groups.
type GroupTable struct {
	ht     *join.Table
	tuples [][]int64
}

// NewGroupTable sizes the table for an estimated group count.
func NewGroupTable(as *probe.AddrSpace, name string, capacity int) *GroupTable {
	return &GroupTable{ht: join.New(as, name, capacity)}
}

// Tuples exposes the group key tuples in slot order (slot i holds
// Tuples()[i]); workers hand them to FinalizeProbed.
func (g *GroupTable) Tuples() [][]int64 { return g.tuples }

// FindOrInsert resolves a key tuple to its group slot, inserting a new
// group when absent, with the probed events of a native hash-group
// operator (chain walk on mixed-key collisions included).
func (g *GroupTable) FindOrInsert(p *probe.Probe, site uint64, tuple []int64) (slot int32, inserted bool) {
	key := GroupKey(tuple)
	s := g.ht.LookupProbed(p, site, key)
	for s >= 0 && !tupleEq(g.tuples[s], tuple) {
		s = g.ht.LookupNextProbed(p, site, s, key)
	}
	if s >= 0 {
		return s, false
	}
	s = g.ht.InsertProbed(p, key)
	g.tuples = append(g.tuples, append([]int64(nil), tuple...))
	return s, true
}

func tupleEq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BindData resolves a planner-built pipeline's own columns against the
// raw generated data: values only, no simulated addresses. It is the
// binding of everything that evaluates without a probe — the planner's
// sampler and the vectorized fast plan. The planner only emits tables
// and columns of the catalog, so every ColSpec resolves.
func BindData(pl *Pipeline, d *tpch.Data) *Bound {
	b := &Bound{Tables: make([][]Col, len(pl.Tables)), Data: d}
	for ti, t := range pl.Tables {
		meta, _ := tpch.SchemaTable(t.Name)
		cols := make([]Col, len(t.Cols))
		for ci, cs := range t.Cols {
			cm, _ := meta.Column(cs.Name)
			switch cs.Kind {
			case I64:
				cols[ci] = Col{Kind: I64, I64: storage.ColI64{V: cm.I64(d)}}
			case I8:
				cols[ci] = Col{Kind: I8, I8: storage.ColI8{V: cm.I8(d)}}
			}
		}
		b.Tables[ti] = cols
	}
	return b
}

// BindCatalog carves a simulated region for every catalog column under
// an engine's address-space prefix and returns the name-keyed
// bindings. Both high-performance engines build their column maps —
// used by the hardcoded queries' struct fields and by Resolve for
// ad-hoc pipelines — through this one helper.
func BindCatalog(as *probe.AddrSpace, prefix string, d *tpch.Data) (
	i64 map[string]storage.ColI64, i8 map[string]storage.ColI8, str map[string]storage.ColStr) {
	i64 = make(map[string]storage.ColI64)
	i8 = make(map[string]storage.ColI8)
	str = make(map[string]storage.ColStr)
	for _, t := range tpch.Schema() {
		for _, c := range t.Cols {
			switch c.Kind {
			case tpch.KindI64:
				i64[c.Name] = storage.NewColI64(as, prefix+c.Name, c.I64(d))
			case tpch.KindI8:
				i8[c.Name] = storage.NewColI8(as, prefix+c.Name, c.I8(d))
			case tpch.KindStr:
				str[c.Name] = storage.NewColStr(as, prefix+c.Name, c.Str(d))
			}
		}
	}
	return
}
