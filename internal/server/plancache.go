package server

import (
	"container/list"
	"sync"

	"olapmicro/internal/sql"
)

// planCache is a thread-safe LRU of compiled, executable statements —
// one level, one entry per plan key (template, engine, threads,
// arguments). Compiled plans are read-only after compilation (every
// execution binds a fresh address space), so one cached plan may
// execute on any number of in-flight queries at once.
type planCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	byKey   map[string]*list.Element
	flights map[string]*inflight

	hits, misses, evictions, dedups uint64
}

// inflight is one compilation in progress: the first miss on a key
// owns it, later misses on the same key wait on done and share the
// owner's outcome instead of compiling the same plan again.
type inflight struct {
	done chan struct{}
	c    *sql.Compiled
	err  error
}

type planEntry struct {
	key string
	c   *sql.Compiled
}

func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element), flights: make(map[string]*inflight)}
}

// evictLocked drops least-recently-used entries until at most keep
// remain, counting each as an eviction.
func (pc *planCache) evictLocked(keep int) {
	for pc.ll.Len() > keep {
		tail := pc.ll.Back()
		pc.ll.Remove(tail)
		delete(pc.byKey, tail.Value.(*planEntry).key)
		pc.evictions++
	}
}

// getOrCompile returns the cached plan for key, or runs compile
// exactly once per concurrent miss group: the first miss compiles
// while later misses on the same key block and adopt its outcome
// (counted in dedups — they are still misses, not hits, since no
// cached entry served them). Errors propagate to every waiter and are
// never cached, so the next request retries; a compile that panics
// retires its flight the same way — the waiters get a PanicError, the
// owner's frame sees the panic itself. cached reports whether a cache
// entry (not a fresh or deduped compilation) served the call. Every
// call is one lookup: a hit or a miss.
func (pc *planCache) getOrCompile(key string, compile func() (*sql.Compiled, error)) (c *sql.Compiled, cached bool, err error) {
	pc.mu.Lock()
	if e, ok := pc.byKey[key]; ok {
		pc.hits++
		pc.ll.MoveToFront(e)
		pc.mu.Unlock()
		return e.Value.(*planEntry).c, true, nil
	}
	pc.misses++
	if f, ok := pc.flights[key]; ok {
		pc.dedups++
		pc.mu.Unlock()
		<-f.done
		return f.c, false, f.err
	}
	f := &inflight{done: make(chan struct{})}
	pc.flights[key] = f
	pc.mu.Unlock()

	// Deferred, so a panicking compile cannot strand the key: without
	// it the flight would stay registered with done never closed, and
	// every later submission of the statement would block forever.
	defer func() {
		r := recover()
		if r != nil {
			f.c, f.err = nil, newPanicError("plan-compile", r)
		}
		pc.mu.Lock()
		delete(pc.flights, key)
		if f.err == nil {
			// The flight made this goroutine key's only writer, so the
			// key cannot already be present.
			pc.byKey[key] = pc.ll.PushFront(&planEntry{key: key, c: f.c})
			pc.evictLocked(pc.cap)
		}
		pc.mu.Unlock()
		close(f.done)
		if r != nil {
			panic(r) // the owner's recover barrier converts and counts it
		}
	}()
	f.c, f.err = compile()
	return f.c, false, f.err
}

// purge evicts every entry (each counted as an eviction). In-flight
// compilations are untouched — their owners still publish on
// completion. Production never calls this; it is the eviction-storm
// fault's lever for forcing the worst-case recompile pattern.
func (pc *planCache) purge() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.evictLocked(0)
}

// len reports the current entry count.
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.ll.Len()
}

// counters snapshots the hit/miss/eviction/dedup totals. dedups
// counts misses that joined another caller's in-flight compilation
// instead of compiling themselves; it is a subset of misses.
func (pc *planCache) counters() (hits, misses, evictions, dedups uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses, pc.evictions, pc.dedups
}
