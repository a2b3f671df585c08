package server

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// This file is the serving path's resilience layer: panics anywhere in
// a query's lifecycle become per-query errors (PanicError), overload
// rejections carry a computed retry-after hint (OverloadError), and
// templates whose compilation keeps failing trip a per-template
// circuit breaker so poison statements are rejected before they burn
// compile time and admission slots.

// ErrBreakerOpen rejects a statement whose template's circuit breaker
// is open after repeated compile failures.
var ErrBreakerOpen = errors.New("server: circuit breaker open: this statement template keeps failing to compile")

// PanicError is a panic recovered inside one query's lifecycle — a
// scan worker running the query's morsel, the compile path, the
// fast-path executor, the session writer or the session's command
// loop. The panic is converted into this per-query (or per-session)
// error; the process and every other in-flight query are unaffected.
type PanicError struct {
	// Op names the frame that recovered: "scan-worker", "plan-compile",
	// "execute", "query-lifecycle", "session-report", "session".
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's captured stack.
	Stack []byte
}

// Error is deliberately one line (the session protocol frames errors
// as single lines); the captured stack is in Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("server: panic recovered in %s: %v", e.Op, e.Value)
}

// Unwrap exposes a panic value that was itself an error (the injected
// worker-panic fault panics with *faults.ErrInjected), so errors.As
// sees through the recovery to the cause.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newPanicError captures the current stack for a recovered value.
func newPanicError(op string, v any) *PanicError {
	return &PanicError{Op: op, Value: v, Stack: debug.Stack()}
}

// OverloadError is an admission rejection with client guidance: how
// deep the backlog was and how long to back off before retrying,
// derived from the queue depth and the observed p95 wall latency.
// errors.Is(err, ErrOverloaded) matches it, so existing callers keep
// working.
type OverloadError struct {
	// Queued and InFlight are the occupancy at rejection time (both
	// budgets were full).
	Queued, InFlight int
	// RetryAfter is the suggested backoff before resubmitting.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: retry-after=%dms queued=%d inflight=%d",
		ErrOverloaded, e.RetryAfter.Milliseconds(), e.Queued, e.InFlight)
}

// Is makes errors.Is(err, ErrOverloaded) hold for wrapped rejections.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// retryAfterBounds clamp the computed hint to something a client can
// act on: never "now", never longer than a scrape interval.
const (
	retryAfterMin     = 5 * time.Millisecond
	retryAfterMax     = 30 * time.Second
	retryAfterDefault = 50 * time.Millisecond // before any query completed
)

// retryAfter computes the backoff hint at rejection time: the backlog
// in front of a resubmission is the full wait queue plus the query
// itself, drained MaxInFlight at a time, each wave costing about one
// observed p95 wall latency. The estimate is deliberately coarse — its
// job is to spread thundering-herd retries, not to schedule them.
func (s *Server) retryAfter(queued int) time.Duration {
	p95 := time.Duration(s.tel.WallMs.Quantile(0.95) * float64(time.Millisecond))
	if p95 <= 0 {
		p95 = retryAfterDefault
	}
	waves := (queued + s.cfg.MaxInFlight) / s.cfg.MaxInFlight // ceil((queued+1)/MaxInFlight), queued ≥ 0
	d := time.Duration(waves) * p95
	if d < retryAfterMin {
		d = retryAfterMin
	}
	if d > retryAfterMax {
		d = retryAfterMax
	}
	return d
}

// Breaker tuning. Counts, not clocks: the breaker must behave
// identically under the race detector, in CI and in chaos replays, so
// the open window is "the next breakerCooldown submissions" rather
// than a wall-time interval.
const (
	// breakerThreshold consecutive compile failures open the breaker.
	breakerThreshold = 3
	// breakerCooldown submissions are rejected outright while open;
	// the next one after that is the half-open probe.
	breakerCooldown = 16
	// breakerMaxTemplates bounds the tracked-template map. Only
	// failing templates are tracked (a success forgets one), so once
	// the map is full a new failing template is not tracked and never
	// trips; the tracked ones keep their breakers.
	breakerMaxTemplates = 1024
)

// breakerState tracks one template. Guarded by breaker.mu.
type breakerState struct {
	fails    int   // consecutive compile failures
	cooldown int   // >0: open, reject this many more submissions
	lastErr  error // last compile error, echoed in rejections
}

// breaker is the per-template compile circuit breaker. Only compile
// failures count: execution errors (cancel, deadline, injected worker
// faults) say nothing about the template being poison.
type breaker struct {
	mu        sync.Mutex
	templates map[string]*breakerState
	opens     uint64 // times any template's breaker tripped open
}

func newBreaker() *breaker {
	return &breaker{templates: make(map[string]*breakerState)}
}

// admit decides whether a template may try to compile. While open it
// consumes one cooldown tick and rejects with ErrBreakerOpen (wrapped
// around the last compile error); at zero cooldown the next caller is
// the half-open probe and passes through.
func (b *breaker) admit(template string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.templates[template]
	if st == nil || st.cooldown == 0 {
		return nil
	}
	st.cooldown--
	return fmt.Errorf("%w (last: %v)", ErrBreakerOpen, st.lastErr)
}

// onCompile records a compile outcome. Success closes the template's
// breaker and forgets it; the breakerThreshold-th consecutive failure
// (and every half-open probe failure after) trips it open and reports
// tripped=true so the caller can count it.
func (b *breaker) onCompile(template string, err error) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		delete(b.templates, template)
		return false
	}
	st := b.templates[template]
	if st == nil {
		if len(b.templates) >= breakerMaxTemplates {
			return false
		}
		st = &breakerState{}
		b.templates[template] = st
	}
	st.fails++
	st.lastErr = err
	if st.fails >= breakerThreshold && st.cooldown == 0 {
		st.cooldown = breakerCooldown
		b.opens++
		return true
	}
	return false
}

// openCount reports how many times any breaker tripped open.
func (b *breaker) openCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// oneLine flattens an error message for the line protocol: panics and
// wrapped errors may carry newlines, and a multi-line error would
// break protocol framing.
func oneLine(msg string) string {
	if !strings.ContainsAny(msg, "\r\n") {
		return msg
	}
	return strings.Join(strings.Fields(msg), " ")
}
