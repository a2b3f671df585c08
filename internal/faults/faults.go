// Package faults is the deterministic fault-injection layer behind
// the server's chaos test suite. An Injector owns a set of named
// injection points (compile error, compile panic, worker panic, slow
// morsel, blocked session writer, plan-cache eviction storm) that
// production call sites consult before doing the faultable thing;
// whether a given invocation fires is a pure function of the
// injector's seed, the point, and the caller-supplied key (the
// statement text, for the server's sites), so a chaos run can predict
// exactly which queries will be faulted — and assert that every other
// query still returns bit-identical results — no matter how the host
// interleaves them.
//
// The injector is wired in explicitly (server.Config.Faults); a nil
// injector is the production configuration and costs call sites one
// pointer comparison, nothing else. Rules are registered before the
// injector is handed to a server and are immutable afterwards, which
// is what lets ShouldFire run lock-free on the hot path.
package faults

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Point names one injection site.
type Point uint8

const (
	// CompileError fails a statement's compilation with ErrInjected.
	CompileError Point = iota
	// WorkerPanic panics inside query execution: a scan slot running
	// the query's morsel, or the fast-path executor before its kernels.
	WorkerPanic
	// SlowMorsel delays one of the query's morsels on its scan slot;
	// results must be unaffected.
	SlowMorsel
	// BlockedWriter stalls the session's result writer before it
	// writes, simulating a slow or wedged client connection.
	BlockedWriter
	// EvictionStorm purges the whole plan cache before the statement's
	// lookup, forcing the worst-case recompile pattern.
	EvictionStorm
	// CompilePanic panics inside a statement's compilation, on the
	// goroutine that owns the plan-cache flight: its waiters must be
	// released with an error and the key must compile normally next time.
	CompilePanic

	// NumPoints bounds the Point space; keep it last.
	NumPoints
)

// String names the point for error messages and test output.
func (p Point) String() string {
	switch p {
	case CompileError:
		return "compile-error"
	case WorkerPanic:
		return "worker-panic"
	case SlowMorsel:
		return "slow-morsel"
	case BlockedWriter:
		return "blocked-writer"
	case EvictionStorm:
		return "eviction-storm"
	case CompilePanic:
		return "compile-panic"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// ErrInjected marks an injected failure so tests (and operators
// reading logs) can tell chaos from genuine faults.
type ErrInjected struct {
	Point Point
	Key   string
}

func (e *ErrInjected) Error() string {
	return fmt.Sprintf("faults: injected %s", e.Point)
}

// rule is one point's enablement: fire keys whose hash lands on rem
// modulo mod. Immutable after Enable.
type rule struct {
	enabled  bool
	mod, rem uint64
}

// Injector decides which invocations of each point fire. The zero
// Injector (and a nil one) never fires.
type Injector struct {
	seed  uint64
	rules [NumPoints]rule

	counts [NumPoints]atomic.Uint64

	mu    sync.Mutex
	fired [NumPoints]map[string]bool
}

// New returns an injector with every point disabled. Two injectors
// with the same seed and rules make identical decisions.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed)}
}

// Enable arms a point: keys whose hash ≡ rem (mod mod) fire, so a
// mod of 1 faults every key and a mod of n faults roughly 1/n of
// them. Enable must be called before the injector is shared; rules
// are read lock-free afterwards.
func (in *Injector) Enable(p Point, mod, rem uint64) {
	if mod == 0 {
		mod = 1
	}
	in.rules[p] = rule{enabled: true, mod: mod, rem: rem % mod}
}

// ShouldFire reports the pure fire decision for (point, key): seeded
// hash, no state. Chaos tests call it to predict which submissions a
// schedule faults.
func (in *Injector) ShouldFire(p Point, key string) bool {
	r := in.rules[p]
	if !r.enabled {
		return false
	}
	return hash(in.seed, p, key)%r.mod == r.rem
}

// Fire is the call-site entry point: it returns ShouldFire's decision
// at most once per (point, key) — a query is faulted once, not once
// per morsel — and records the firing. Call sites must guard the call
// with a nil check so the disabled configuration costs nothing.
func (in *Injector) Fire(p Point, key string) bool {
	if !in.ShouldFire(p, key) {
		return false
	}
	in.mu.Lock()
	if in.fired[p] == nil {
		in.fired[p] = make(map[string]bool)
	}
	if in.fired[p][key] {
		in.mu.Unlock()
		return false
	}
	in.fired[p][key] = true
	in.mu.Unlock()
	in.counts[p].Add(1)
	return true
}

// Count reports how many distinct keys have fired at a point.
func (in *Injector) Count(p Point) uint64 { return in.counts[p].Load() }

// Fired reports whether the point already fired for key (a past-tense
// ShouldFire: useful when asserting a fault actually reached its
// site).
func (in *Injector) Fired(p Point, key string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p][key]
}

// hash is FNV-1a over the seed, the point and the key — stable across
// runs, platforms and Go releases (unlike maphash), which the
// bit-identical chaos oracle depends on.
func hash(seed uint64, p Point, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range [8]byte{
		byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24),
		byte(seed >> 32), byte(seed >> 40), byte(seed >> 48), byte(seed >> 56),
	} {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ uint64(p)) * prime
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return h
}
