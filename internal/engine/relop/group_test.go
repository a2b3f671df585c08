package relop

import (
	"testing"

	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
)

// Distinct tuples whose mixed GroupKeys collide must still resolve to
// distinct groups: (1, 5000015) and (5, 1000003) both mix to 6000018.
func TestGroupTableCollidingTuples(t *testing.T) {
	a := GroupKey([]int64{1, 5000015})
	b := GroupKey([]int64{5, 1000003})
	if a != b {
		t.Fatalf("test premise broken: keys %d and %d do not collide", a, b)
	}
	as := probe.NewAddrSpace()
	p := probe.New(hw.Broadwell(), mem.AllPrefetchers())
	g := NewGroupTable(as, "test.grp", 8)

	s1, ins1 := g.FindOrInsert(p, 0x9000, []int64{1, 5000015})
	s2, ins2 := g.FindOrInsert(p, 0x9000, []int64{5, 1000003})
	if !ins1 || !ins2 {
		t.Fatalf("both colliding tuples must insert fresh groups (got %v, %v)", ins1, ins2)
	}
	if s1 == s2 {
		t.Fatalf("colliding tuples merged into slot %d", s1)
	}
	// Re-probing either tuple finds its own slot.
	if s, ins := g.FindOrInsert(p, 0x9000, []int64{1, 5000015}); ins || s != s1 {
		t.Fatalf("re-probe of first tuple: slot %d inserted=%v, want %d false", s, ins, s1)
	}
	if s, ins := g.FindOrInsert(p, 0x9000, []int64{5, 1000003}); ins || s != s2 {
		t.Fatalf("re-probe of second tuple: slot %d inserted=%v, want %d false", s, ins, s2)
	}
	if len(g.tuples) != 2 {
		t.Fatalf("%d groups, want 2", len(g.tuples))
	}
}
