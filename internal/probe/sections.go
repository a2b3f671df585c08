package probe

import (
	"olapmicro/internal/cpu"
	"olapmicro/internal/mem"
)

// Counters is a value snapshot of every extensive counter a probe
// accumulates. Two snapshots subtract into the events charged between
// them, which is how EXPLAIN ANALYZE attributes a run's work to named
// operator sections without touching the simulators themselves.
type Counters struct {
	Ops          cpu.OpCounts
	Branches     uint64
	Mispredicts  uint64
	Traversals   uint64
	DecodeEvents uint64
	Mem          mem.Stats
}

// Counters snapshots the probe's counters.
func (p *Probe) Counters() Counters {
	return Counters{
		Ops:          p.Ops,
		Branches:     p.Branch.Branches,
		Mispredicts:  p.Branch.Mispredicts,
		Traversals:   p.Frontend.Traversals,
		DecodeEvents: p.Frontend.DecodeEvents,
		Mem:          p.Mem.Stats,
	}
}

// Sub returns the counter deltas c - o, where o is an earlier
// snapshot of the same run.
func (c Counters) Sub(o Counters) Counters {
	out := Counters{
		Branches:     c.Branches - o.Branches,
		Mispredicts:  c.Mispredicts - o.Mispredicts,
		Traversals:   c.Traversals - o.Traversals,
		DecodeEvents: c.DecodeEvents - o.DecodeEvents,
		Mem:          c.Mem.Sub(o.Mem),
	}
	out.Ops = c.Ops
	for i := range out.Ops.N {
		out.Ops.N[i] -= o.Ops.N[i]
	}
	out.Ops.DepCycles -= o.Ops.DepCycles
	out.Ops.ExtraExecCycles -= o.Ops.ExtraExecCycles
	return out
}

// Section is one named slice of a sectioned run, in first-use order.
type Section struct {
	Name     string
	Counters Counters
}

// sections is the gated per-operator attribution state. It exists
// only on probes that called EnableSections; the hot-path hooks in
// the engines reduce to one nil check otherwise.
type sections struct {
	idx  map[string]int
	list []Section
	cur  int // open section index; -1 when none
	mark Counters
}

// EnableSections turns on named-section attribution: subsequent
// BeginSection calls slice the counter stream into per-operator
// deltas. The serial EXPLAIN ANALYZE pass enables it; ordinary runs
// never pay more than a nil check per hook.
func (p *Probe) EnableSections() {
	p.secs = &sections{idx: map[string]int{}, cur: -1}
}

// BeginSection closes the open section (if any) and charges
// subsequent events to name. Reusing a name accumulates into the
// existing section, preserving first-use order — a vectorized chunk
// loop re-enters its primitive sections thousands of times.
func (p *Probe) BeginSection(name string) {
	s := p.secs
	if s == nil {
		return
	}
	now := p.Counters()
	if s.cur >= 0 {
		s.list[s.cur].Counters = addCounters(s.list[s.cur].Counters, now.Sub(s.mark))
	}
	i, ok := s.idx[name]
	if !ok {
		i = len(s.list)
		s.idx[name] = i
		s.list = append(s.list, Section{Name: name})
	}
	s.cur = i
	s.mark = now
}

// EndSection closes the open section; events until the next
// BeginSection go unattributed (they still count in the run totals).
func (p *Probe) EndSection() {
	s := p.secs
	if s == nil || s.cur < 0 {
		return
	}
	now := p.Counters()
	s.list[s.cur].Counters = addCounters(s.list[s.cur].Counters, now.Sub(s.mark))
	s.cur = -1
}

// Sections returns the accumulated sections in first-use order,
// closing the open one first.
func (p *Probe) Sections() []Section {
	if p.secs == nil {
		return nil
	}
	p.EndSection()
	out := make([]Section, len(p.secs.list))
	copy(out, p.secs.list)
	return out
}

// addCounters is Counters addition (Sub's inverse).
func addCounters(a, b Counters) Counters {
	out := a
	for i := range out.Ops.N {
		out.Ops.N[i] += b.Ops.N[i]
	}
	out.Ops.DepCycles += b.Ops.DepCycles
	out.Ops.ExtraExecCycles += b.Ops.ExtraExecCycles
	out.Branches += b.Branches
	out.Mispredicts += b.Mispredicts
	out.Traversals += b.Traversals
	out.DecodeEvents += b.DecodeEvents
	out.Mem.Add(b.Mem)
	return out
}
