// Package tpch is a deterministic TPC-H data generator (a dbgen
// equivalent) producing the eight benchmark tables at a configurable
// scale factor with the standard cardinalities and the value
// distributions the paper's workloads depend on: uniform keys,
// uniform dates, discount/quantity/tax domains, and color-word part
// names for Q9's '%green%' filter.
package tpch

// gamma is SplitMix64's increment, the golden-ratio constant.
const gamma = 0x9e3779b97f4a7c15

// rng is a SplitMix64 PRNG: tiny, fast, and deterministic across
// platforms, which keeps generated databases bit-identical between
// runs and machines. It is counter-based: after k draws the state is
// the seed's plus k·gamma, so skip opens a stream at any later draw in
// O(1), and copies opened at different draws can make disjoint runs of
// one stream's draws on several goroutines at once.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ gamma} }

func (r *rng) next() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip advances the stream past n draws without making them.
func (r *rng) skip(n int) { r.state += uint64(n) * gamma }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// between returns a uniform value in [lo, hi] inclusive.
func (r *rng) between(lo, hi int64) int64 {
	return lo + r.intn(hi-lo+1)
}
