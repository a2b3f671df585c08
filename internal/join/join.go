// Package join provides the chained-bucket hash table all four engines
// use for hash joins and group-bys. It is instrumented: probed inserts
// and lookups emit the loads, hash arithmetic and compare branches a
// native implementation would execute, and the table exposes the
// chain-length statistics the paper reports for its group-by vs join
// comparison (Section 6).
package join

import (
	"math"

	"olapmicro/internal/engine"
	"olapmicro/internal/probe"
)

// Table is a chained hash table from int64 keys to int32 slots.
// Slots are insertion indices; callers keep payload in parallel arrays.
type Table struct {
	mask     uint64
	heads    []int32
	nexts    []int32
	keys     []int64
	headsR   probe.Region
	entryR   probe.Region
	slotMask uint64 // power-of-two bound for scattered entry placement
	hashing  engine.HashCosts
}

// New creates a table sized for capacity entries (buckets are the next
// power of two of 2x capacity, load factor <= 0.5 like the Tectorwise
// implementation). Regions for the bucket array and the entry heap are
// carved from as so probed accesses exercise the cache simulator.
func New(as *probe.AddrSpace, name string, capacity int) *Table {
	if capacity < 1 {
		capacity = 1
	}
	buckets := 1
	for buckets < 2*capacity {
		buckets <<= 1
	}
	t := &Table{
		mask:    uint64(buckets - 1),
		heads:   make([]int32, buckets),
		nexts:   make([]int32, 0, capacity),
		keys:    make([]int64, 0, capacity),
		hashing: engine.DefaultHashCosts(),
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	slots := 1
	for slots < capacity {
		slots <<= 1
	}
	t.slotMask = uint64(slots - 1)
	t.headsR = as.Alloc(name+".buckets", uint64(buckets)*headBytes)
	t.entryR = as.Alloc(name+".entries", uint64(slots)*entryBytes)
	return t
}

// entryAddr maps a slot to its simulated address. Entries come from
// size-class pool allocators, so their placement is uncorrelated with
// insertion (and hence probe) order — consecutive probes of a
// key-clustered relation still take independent random misses, which
// is what the paper's join profile shows.
func (t *Table) entryAddr(slot int32) uint64 {
	scattered := (uint64(slot) * 0x9E3779B97F4A7C15) & t.slotMask
	return t.entryR.Base + scattered*entryBytes
}

// headBytes is the modelled bucket-head size: a 64-bit pointer.
const headBytes = 8

// entryBytes is the modelled entry size: key (8) + next (4) + slot (4)
// plus the build-side payload columns the probe needs (16 bytes) —
// both engines materialize the payload into the table to avoid a
// second random access into the build relation.
const entryBytes = 32

// Hash is the multiplicative (Fibonacci) hash shared by all engines.
func Hash(key int64) uint64 {
	h := uint64(key) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ (h >> 32)
}

func (t *Table) bucket(key int64) uint64 { return Hash(key) & t.mask }

// Len is the number of entries.
func (t *Table) Len() int { return len(t.keys) }

// Keys exposes the inserted keys in slot order (slot i holds Keys()[i]).
func (t *Table) Keys() []int64 { return t.keys }

// Insert adds key and returns its slot. Duplicate keys chain.
func (t *Table) Insert(key int64) int32 {
	b := t.bucket(key)
	slot := int32(len(t.keys))
	t.keys = append(t.keys, key)
	t.nexts = append(t.nexts, t.heads[b])
	t.heads[b] = slot
	return slot
}

// InsertProbed is Insert plus the micro-architectural events of a
// native build loop: hash arithmetic, head load, entry store.
func (t *Table) InsertProbed(p *probe.Probe, key int64) int32 {
	t.emitHash(p)
	b := t.bucket(key)
	p.Load(t.headsR.Base+uint64(b)*headBytes, headBytes)
	p.Store(t.headsR.Base+uint64(b)*headBytes, headBytes)
	slot := t.Insert(key)
	p.Store(t.entryAddr(slot), entryBytes)
	p.ALU(2)
	return slot
}

// LookupProbed returns the first slot whose key matches, or -1, with
// native events: hash arithmetic, a random load of the bucket head, one
// random load per chain entry, a compare branch per entry. site
// distinguishes static probe locations for the branch predictor.
func (t *Table) LookupProbed(p *probe.Probe, site uint64, key int64) int32 {
	t.emitHash(p)
	b := t.bucket(key)
	p.Load(t.headsR.Base+uint64(b)*headBytes, headBytes)
	// The probe code branches on bucket emptiness before walking the
	// chain; for sparse build sides (a filtered part table) this
	// branch is data-dependent and hard to predict — a large part of
	// Q9's branch misprediction stalls.
	p.BranchOp(site+1, t.heads[b] >= 0)
	for s := t.heads[b]; s >= 0; s = t.nexts[s] {
		p.Load(t.entryAddr(s), entryBytes)
		p.ALU(1)
		match := t.keys[s] == key
		p.BranchOp(site, match)
		if match {
			return s
		}
	}
	return -1
}

// LookupNextProbed continues a duplicate-key chain from a prior slot.
func (t *Table) LookupNextProbed(p *probe.Probe, site uint64, slot int32, key int64) int32 {
	for s := t.nexts[slot]; s >= 0; s = t.nexts[s] {
		p.Load(t.entryAddr(s), entryBytes)
		p.ALU(1)
		match := t.keys[s] == key
		p.BranchOp(site, match)
		if match {
			return s
		}
	}
	return -1
}

// LookupOrInsertProbed returns the slot for key, inserting it when
// absent, with native events; inserted reports which happened. This is
// the group-by path.
func (t *Table) LookupOrInsertProbed(p *probe.Probe, site uint64, key int64) (slot int32, inserted bool) {
	if s := t.LookupProbed(p, site, key); s >= 0 {
		return s, false
	}
	b := t.bucket(key)
	p.Store(t.headsR.Base+uint64(b)*headBytes, headBytes)
	slot = t.Insert(key)
	p.Store(t.entryAddr(slot), entryBytes)
	p.ALU(2)
	return slot, true
}

func (t *Table) emitHash(p *probe.Probe) {
	p.Mul(t.hashing.MulOps)
	p.ALU(t.hashing.ALUOps)
	p.Dep(t.hashing.Dep)
}

// ChainStats summarizes bucket-chain lengths, the statistic the paper
// uses to show group-by tables are more irregular than join tables.
type ChainStats struct {
	Mean float64
	Std  float64
	Max  int
}

// ChainStats computes the distribution of chain lengths over buckets.
func (t *Table) ChainStats() ChainStats {
	n := len(t.heads)
	if n == 0 {
		return ChainStats{}
	}
	var sum, sumSq float64
	maxLen := 0
	for _, head := range t.heads {
		l := 0
		for s := head; s >= 0; s = t.nexts[s] {
			l++
		}
		if l > maxLen {
			maxLen = l
		}
		sum += float64(l)
		sumSq += float64(l) * float64(l)
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return ChainStats{Mean: mean, Std: math.Sqrt(variance), Max: maxLen}
}
