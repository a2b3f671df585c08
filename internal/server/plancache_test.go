package server

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"olapmicro/internal/sql"
)

// Keys must separate literals, engines and thread counts, and unify
// textual variants.
func TestPlanKey(t *testing.T) {
	keyOf := func(text, engine string, threads int) string {
		id := sql.Identify(text, true)
		return planKey(id.Key, engine, threads, id.Args)
	}
	base := keyOf("select count(*) from nation", "auto", 4)
	same := []string{
		"SELECT COUNT(*) FROM nation",
		"select count(*)  from nation;",
		"select count(*) -- c\nfrom nation",
	}
	for _, v := range same {
		if keyOf(v, "auto", 4) != base {
			t.Errorf("variant %q must share the key", v)
		}
	}
	if keyOf("select count(*) from nation", "", 4) != base {
		t.Error("empty engine must key as auto")
	}
	distinct := []string{
		keyOf("select count(*) from region", "auto", 4),
		keyOf("select count(*) from nation where n_nationkey >= 5", "auto", 4),
		keyOf("select count(*) from nation", "typer", 4),
		keyOf("select count(*) from nation", "tectorwise", 4),
		keyOf("select count(*) from nation", "auto", 8),
	}
	seen := map[string]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("distinct key %d collides", i)
		}
		seen[k] = true
	}
	// Queries differing only in a literal must never collide.
	for v := 0; v < 100; v++ {
		k := keyOf(fmt.Sprintf("select count(*) from nation where n_nationkey < %d", v), "auto", 4)
		if seen[k] {
			t.Fatalf("literal %d collides with an earlier key", v)
		}
		seen[k] = true
	}
}

// Eviction under capacity pressure: LRU order, capacity never
// exceeded, eviction counter advances.
func TestPlanCacheEviction(t *testing.T) {
	pc := newPlanCache(2)
	// lookup reports whether k was cached, compiling it in on a miss.
	lookup := func(k string) bool {
		_, cached, err := pc.getOrCompile(k, func() (*sql.Compiled, error) { return &sql.Compiled{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	lookup("a")
	lookup("b")
	if !lookup("a") { // promotes a over b
		t.Fatal("a must be cached")
	}
	lookup("c") // evicts b, the least recently used
	if pc.len() != 2 {
		t.Fatalf("len %d, want 2", pc.len())
	}
	if !lookup("a") {
		t.Error("a must have survived")
	}
	if !lookup("c") {
		t.Error("c must be cached")
	}
	if lookup("b") { // recompiles b in, evicting a
		t.Error("b must have been evicted")
	}
	hits, misses, evictions, _ := pc.counters()
	if evictions != 2 {
		t.Errorf("evictions %d, want 2", evictions)
	}
	if hits != 3 || misses != 4 {
		t.Errorf("hits=%d misses=%d, want 3/4", hits, misses)
	}
	if pc.len() != 2 {
		t.Errorf("the cache grew to %d", pc.len())
	}
}

// Degenerate capacities clamp to one entry.
func TestPlanCacheMinCapacity(t *testing.T) {
	pc := newPlanCache(0)
	for _, k := range []string{"a", "b"} {
		if _, _, err := pc.getOrCompile(k, func() (*sql.Compiled, error) { return &sql.Compiled{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if pc.len() != 1 {
		t.Fatalf("len %d, want 1", pc.len())
	}
}

// Concurrent misses on one key must compile exactly once: the first
// miss owns the compilation, later misses wait and share its outcome,
// counted in the dedup counter. This pins the fix for the get-then-put
// race where two racing misses both compiled and one Compiled was
// silently discarded.
func TestPlanCacheSingleFlight(t *testing.T) {
	pc := newPlanCache(8)
	var compiles int64
	started := make(chan struct{})
	release := make(chan struct{})
	compile := func() (*sql.Compiled, error) {
		if atomic.AddInt64(&compiles, 1) == 1 {
			close(started)
		}
		<-release // hold the flight open so every goroutine piles on
		return &sql.Compiled{}, nil
	}
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]*sql.Compiled, goroutines)
	cachedFlags := make([]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, cached, err := pc.getOrCompile("q", compile)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			results[g] = c
			cachedFlags[g] = cached
		}(g)
	}
	<-started
	// Let the stragglers reach the in-flight wait, then release.
	for {
		pc.mu.Lock()
		waiting := len(pc.flights) > 0 && pc.dedups >= goroutines-1
		pc.mu.Unlock()
		if waiting {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := atomic.LoadInt64(&compiles); n != 1 {
		t.Fatalf("compile ran %d times, want exactly 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different Compiled", g)
		}
	}
	for g, cached := range cachedFlags {
		if cached {
			t.Errorf("goroutine %d reported a cache hit; deduped misses are not hits", g)
		}
	}
	hits, misses, _, dedups := pc.counters()
	if misses != goroutines {
		t.Errorf("misses %d, want %d (dedups still count as misses)", misses, goroutines)
	}
	if dedups != goroutines-1 {
		t.Errorf("dedups %d, want %d", dedups, goroutines-1)
	}
	if hits != 0 {
		t.Errorf("hits %d, want 0", hits)
	}
	// The winner's plan is now cached: the next lookup hits.
	if _, cached, _ := pc.getOrCompile("q", compile); !cached {
		t.Error("post-flight lookup must hit the cache")
	}
}

// Failed compilations propagate to every waiter and are never cached,
// so the next request retries.
func TestPlanCacheSingleFlightError(t *testing.T) {
	pc := newPlanCache(8)
	boom := fmt.Errorf("syntax error")
	if _, _, err := pc.getOrCompile("bad", func() (*sql.Compiled, error) { return nil, boom }); err != boom {
		t.Fatalf("err %v, want %v", err, boom)
	}
	if pc.len() != 0 {
		t.Fatalf("failed compile must not cache; len %d", pc.len())
	}
	// The error is not sticky: a later compile that succeeds caches.
	c, cached, err := pc.getOrCompile("bad", func() (*sql.Compiled, error) { return &sql.Compiled{}, nil })
	if err != nil || cached || c == nil {
		t.Fatalf("retry got c=%v cached=%v err=%v", c, cached, err)
	}
	if _, cached, _ := pc.getOrCompile("bad", nil); !cached {
		t.Error("retry's plan must now be cached")
	}
}

// A compile that panics must retire its flight: the owner's frame sees
// the panic, a concurrent waiter gets it as an error, and the key is
// free for the next request. On the parent the flight stayed
// registered with done never closed, so the waiter and every later
// lookup of the key hung.
func TestPlanCacheCompilePanic(t *testing.T) {
	pc := newPlanCache(8)
	entered := make(chan struct{})
	release := make(chan struct{})
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		_, _, _ = pc.getOrCompile("q", func() (*sql.Compiled, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := pc.getOrCompile("q", func() (*sql.Compiled, error) {
			return nil, fmt.Errorf("the waiter must join the flight, not compile")
		})
		waiterErr <- err
	}()
	for {
		_, _, _, dedups := pc.counters()
		if dedups == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)

	timeout := time.After(30 * time.Second)
	select {
	case r := <-ownerPanic:
		if r != "boom" {
			t.Errorf("owner recovered %v, want the compile's own panic value", r)
		}
	case <-timeout:
		t.Fatal("owner never returned")
	}
	select {
	case err := <-waiterErr:
		var perr *PanicError
		if !errors.As(err, &perr) || perr.Op != "plan-compile" || perr.Value != "boom" || len(perr.Stack) == 0 {
			t.Errorf("waiter got %v, want the compile panic as a *PanicError with its stack", err)
		}
	case <-timeout:
		t.Fatal("waiter still blocked on the panicked flight")
	}

	retried := make(chan error, 1)
	go func() {
		c, cached, err := pc.getOrCompile("q", func() (*sql.Compiled, error) { return &sql.Compiled{}, nil })
		if err == nil && (cached || c == nil) {
			err = fmt.Errorf("retry got c=%v cached=%v, want a fresh compile", c, cached)
		}
		retried <- err
	}()
	select {
	case err := <-retried:
		if err != nil {
			t.Error(err)
		}
	case <-timeout:
		t.Fatal("the key stayed stranded after its compile panicked")
	}
}

// Concurrent readers and writers on overlapping keys: run under
// -race; the invariant is the capacity bound and internal
// consistency, exercised from many goroutines.
func TestPlanCacheConcurrency(t *testing.T) {
	pc := newPlanCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("q%d", (g+i)%16)
				if _, _, err := pc.getOrCompile(k, func() (*sql.Compiled, error) { return &sql.Compiled{}, nil }); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if pc.len() > 8 {
		t.Fatalf("capacity exceeded: %d", pc.len())
	}
	hits, misses, _, _ := pc.counters()
	if hits+misses != 8*500 {
		t.Errorf("lookups %d, want %d", hits+misses, 8*500)
	}
}
