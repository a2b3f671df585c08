package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"olapmicro/internal/engine/parallel"
	"olapmicro/internal/engine/relop"
	"olapmicro/internal/faults"
)

// pool is the shared morsel worker pool every in-flight query's scan
// phase runs on. It owns n long-lived goroutines, one per slot. An
// admitted query contributes one share per query-thread: share i
// drives the query's worker i over morsels i, i+T, i+2T, ... — the
// exact partition parallel.Dedicated uses at T threads, so a
// query's per-worker event streams (and therefore its results and
// profiles) are identical however its morsels interleave with other
// queries'. Each slot services its shares round-robin, one morsel per
// turn, which is the per-query fairness guarantee: a slot shared by R
// queries advances each of them at 1/R of its rate, it never drains
// one query before starting the next.
//
// Slots isolate panics: a panic inside one morsel's execution is
// recovered, recorded on that morsel's task (failing only that
// query), and the slot keeps scheduling every other query's shares —
// a query-scoped fault never kills the pool, let alone the process.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	slots  [][]*share // per slot: active shares, serviced round-robin
	rr     []int      // per slot: next share to service
	place  int        // next slot for an arriving task's first share
	closed bool
	wg     sync.WaitGroup

	// faults optionally arms the slow-morsel and worker-panic
	// injection points (nil in production).
	faults *faults.Injector

	// busy counts slots currently executing a morsel — the
	// slot-utilization gauge the telemetry layer exports.
	busy atomic.Int64
}

// busySlots reports how many slots are executing a morsel right now.
func (p *pool) busySlots() int64 { return p.busy.Load() }

// poolTask is one query's scan phase: its morsels, its per-thread
// workers, and the completion signal.
type poolTask struct {
	ctx      context.Context
	faultKey string // statement identity for deterministic fault injection
	morsels  []parallel.Morsel
	threads  int // stride; == len(workers)
	workers  []relop.Worker

	// busyNs and ran aggregate each worker's morsel runtimes and
	// morsel count (indexed like workers). A share is pinned to one
	// slot, so its worker's entries have a single writer; the done
	// close orders them before the submitter's read.
	busyNs []int64
	ran    []int

	remaining int  // shares not yet drained (guarded by pool.mu)
	aborted   bool // a morsel panicked: skip the rest (guarded by pool.mu)
	panicErr  *PanicError

	done chan struct{}
}

// panicked reports the task's recovered morsel panic, if any. Only
// valid after done closed (which orders the write).
func (t *poolTask) panicked() *PanicError { return t.panicErr }

// share is one (task, worker) pair assigned to one slot.
type share struct {
	t    *poolTask
	w    relop.Worker
	wi   int // worker index within the task
	next int // next morsel index; advances by t.threads
}

func newPool(n int) *pool {
	if n < 1 {
		n = 1
	}
	p := &pool{
		n:     n,
		slots: make([][]*share, n),
		rr:    make([]int, n),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for s := 0; s < n; s++ {
		go p.worker(s)
	}
	return p
}

// enqueue registers a task's shares on consecutive slots (rotating
// the starting slot across tasks so load spreads) and returns
// immediately; t.done closes when every share has drained. Enqueueing
// on a closed pool completes the task immediately without running
// anything — the server stops admitting before it closes the pool, so
// this is a belt-and-braces guard against a waiter hanging forever on
// a task whose shares no slot will ever service.
func (p *pool) enqueue(t *poolTask) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		close(t.done)
		return
	}
	t.remaining = len(t.workers)
	base := p.place
	p.place = (p.place + len(t.workers)) % p.n
	for i, w := range t.workers {
		s := (base + i) % p.n
		p.slots[s] = append(p.slots[s], &share{t: t, w: w, wi: i, next: i})
	}
	p.cond.Broadcast()
}

// worker keeps one slot alive for the pool's lifetime: the scheduling
// loop runs in runSlot, and if a slot-level panic ever escapes the
// per-morsel recovery (a scheduler bug, not a query fault), the slot
// re-enters the loop rather than silently shrinking the pool.
func (p *pool) worker(s int) {
	defer p.wg.Done()
	for p.runSlot(s) {
	}
}

// runSlot is one slot's scheduling loop: pick the next share
// round-robin, run one morsel of it (or drain it without running if
// its query was canceled or panicked), retire drained shares, sleep
// when the slot has none. It returns false when the pool closed, true
// if it exited by recovering an unexpected scheduler panic and should
// be re-entered.
func (p *pool) runSlot(s int) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			again = true
		}
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.slots[s]) == 0 {
			if p.closed {
				return false
			}
			p.cond.Wait()
			continue
		}
		if p.rr[s] >= len(p.slots[s]) {
			p.rr[s] = 0
		}
		sh := p.slots[s][p.rr[s]]
		run := -1
		if sh.t.ctx.Err() == nil && !sh.t.aborted && sh.next < len(sh.t.morsels) {
			run = sh.next
			sh.next += sh.t.threads
		} else {
			// Canceled or panicked: skip the remaining morsels so the
			// share (and with it the query) retires at the slot's next
			// visit.
			sh.next = len(sh.t.morsels)
		}
		last := sh.next >= len(sh.t.morsels)
		if last {
			p.slots[s] = append(p.slots[s][:p.rr[s]], p.slots[s][p.rr[s]+1:]...)
		} else {
			p.rr[s]++
		}
		if run >= 0 {
			m := sh.t.morsels[run]
			p.mu.Unlock()
			p.busy.Add(1)
			t0 := time.Now() //olap:allow wallclock real busy-time telemetry, not simulated cost
			perr := p.runMorsel(sh, m)
			dt := time.Since(t0) //olap:allow wallclock real busy-time telemetry, not simulated cost
			p.busy.Add(-1)
			p.mu.Lock()
			if perr != nil && !sh.t.aborted {
				// First panic wins; the flag makes every other share of
				// the task drain without running. The done close (after
				// the last share retires) orders panicErr before the
				// submitter's read.
				sh.t.aborted = true
				sh.t.panicErr = perr
			}
			if sh.t.busyNs != nil {
				sh.t.busyNs[sh.wi] += int64(dt)
				sh.t.ran[sh.wi]++
			}
		}
		// Retire after the morsel ran: done must not close while any
		// worker of the task is still executing.
		if last {
			sh.t.remaining--
			if sh.t.remaining == 0 {
				close(sh.t.done)
			}
		}
	}
}

// injectedSlowMorselDelay is the stall the slow-morsel fault injects —
// long enough to reorder the pool's interleaving around it, short
// enough that a chaos sweep stays fast.
const injectedSlowMorselDelay = 2 * time.Millisecond

// runMorsel executes one morsel with panic isolation: a panic in the
// engine kernel (or injected by the worker-panic fault) is recovered
// and returned as the query's PanicError; the slot — and every other
// query sharing it — is unaffected. The fault hooks sit here, between
// scheduling and execution: both fire at most once per query, and
// with a nil injector the hot path pays two pointer comparisons.
func (p *pool) runMorsel(sh *share, m parallel.Morsel) (perr *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			perr = newPanicError("pool-worker", r)
		}
	}()
	if p.faults != nil {
		if p.faults.Fire(faults.SlowMorsel, sh.t.faultKey) {
			time.Sleep(injectedSlowMorselDelay)
		}
		if p.faults.Fire(faults.WorkerPanic, sh.t.faultKey) {
			panic(&faults.ErrInjected{Point: faults.WorkerPanic, Key: sh.t.faultKey})
		}
	}
	sh.w.RunMorsel(m.Start, m.End)
	return nil
}

// close drains every remaining share and stops the slot goroutines.
// The server stops admitting queries before calling it, so remaining
// shares belong to queries already being waited on. Idempotent and
// safe to call concurrently.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
