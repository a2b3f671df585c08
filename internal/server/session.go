package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"olapmicro/internal/faults"
	"olapmicro/internal/sql"
)

// Session runs the line-oriented text protocol cmd/olapserve speaks,
// over stdin/stdout or one TCP connection:
//
//	submit <sql>    accept the statement; "ok id=N" now, one
//	                "result id=N ..." line when it finishes (results
//	                of concurrent submissions interleave freely)
//	query <sql>     synchronous submit: block and print the result
//	prepare <name> <sql>
//	                register a parameterized statement (`?`
//	                placeholders) under name for this session (at most
//	                maxPrepared names; re-preparing a name replaces it)
//	execute <name> [args...]
//	                submit the prepared statement with its placeholders
//	                bound to the integer arguments (dates as TPC-H epoch-day
//	                offsets), asynchronously like submit
//	fast on|off     toggle profile-free fast mode for this session's
//	                later submissions: results stay bit-identical, but
//	                no micro-architectural profile is simulated (result
//	                lines then carry fast=true and time=0)
//	timeout <ms>    bound this session's later submissions to a
//	                millisecond deadline (0 removes any deadline,
//	                including the server default; "timeout default"
//	                restores the server default)
//	cancel <id>     cancel a pending submission
//	stats           print the service counters
//	metrics         print the Prometheus text exposition, each line
//	                prefixed "metric | ", then "ok metrics"
//	wait            block until this session's submissions finish
//	quit            wait, then exit (EOF does the same)
//
// Responses are single lines; EXPLAIN and EXPLAIN ANALYZE output
// spans several lines, each prefixed "explain id=N |" (EXPLAIN
// ANALYZE also prints the normal result line — it executed). Error
// lines start "error".
type Session struct {
	srv *Server
	out *bufio.Writer

	// ctx spans the session; a failed write (the peer hung up) cancels
	// it, which cancels every query this session still has in flight —
	// a dead client must not keep occupying scan slots.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex // serializes writes; result lines come from many goroutines
	pending sync.WaitGroup

	// prepped, fast and the timeout pair are session-local command
	// state, touched only by the command loop (never by reporter
	// goroutines), so they need no lock.
	prepped    map[string]*prepared
	fast       bool
	timeout    time.Duration
	hasTimeout bool
}

// prepared is a named statement as the client wrote it, with the
// identity prepare resolved for it: execute lexes nothing.
type prepared struct {
	text string
	id   sql.Identity
}

// maxPrepared bounds a session's prepared-statement names: a client
// cannot grow server memory without bound by preparing in a loop.
const maxPrepared = 256

// ServeSession speaks the protocol on r/w until quit or EOF; it
// returns the reader's error, if any. Submissions it accepted are
// waited for before it returns (canceled instead if the peer is
// gone). A panic in the command loop, which runs on the connection's
// goroutine outside every query's barrier, ends only this session: it
// cancels the session's submissions and returns a *PanicError.
func (s *Server) ServeSession(r io.Reader, w io.Writer) (err error) {
	ses := &Session{srv: s, out: bufio.NewWriter(w)}
	ses.ctx, ses.cancel = context.WithCancel(context.Background())
	defer ses.cancel()
	defer ses.pending.Wait()
	defer func() {
		if v := recover(); v != nil {
			s.tel.Panics.Inc()
			ses.cancel()
			err = newPanicError("session", v)
		}
	}()
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(cmd) {
		case "quit", "exit":
			return nil
		case "wait":
			ses.pending.Wait()
			ses.printf("ok drained")
		case "stats":
			ses.printStats()
		case "metrics":
			ses.printMetrics()
		case "cancel":
			ses.cancelCmd(rest)
		case "submit":
			ses.submit(rest, false)
		case "query":
			ses.submit(rest, true)
		case "prepare":
			ses.prepareCmd(rest)
		case "execute":
			ses.executeCmd(rest)
		case "fast":
			ses.fastCmd(rest)
		case "timeout":
			ses.timeoutCmd(rest)
		default:
			ses.printf("error unknown command %q (want submit, query, prepare, execute, fast, timeout, cancel, stats, metrics, wait, quit)", cmd)
		}
	}
	return in.Err()
}

// printf writes one protocol line. A flush failure means the peer is
// gone: cancel the session so its remaining queries stop at their
// next morsel boundary instead of running for nobody.
func (ses *Session) printf(format string, args ...any) {
	ses.mu.Lock()
	defer ses.mu.Unlock()
	fmt.Fprintf(ses.out, format+"\n", args...)
	if ses.out.Flush() != nil {
		ses.cancel()
	}
}

// submit accepts one statement; blocking waits for the result line.
func (ses *Session) submit(text string, blocking bool, opts ...SubmitOption) {
	if text == "" {
		ses.printf("error submit wants a statement")
		return
	}
	if ses.fast {
		opts = append(opts, WithFast())
	}
	if ses.hasTimeout {
		opts = append(opts, WithTimeout(ses.timeout))
	}
	t, err := ses.srv.QueryAsync(ses.ctx, text, opts...)
	if err != nil {
		ses.printf("error %s", oneLine(err.Error()))
		return
	}
	if blocking {
		ses.safeReport(t, text)
		return
	}
	ses.printf("ok id=%d", t.ID)
	ses.pending.Add(1)
	go func() {
		defer ses.pending.Done()
		ses.safeReport(t, text)
	}()
}

// prepareCmd registers a named parameterized statement for later
// execute commands, resolving its identity now; its placeholders
// compile (and cache) on first execution.
func (ses *Session) prepareCmd(rest string) {
	name, text, _ := strings.Cut(rest, " ")
	text = strings.TrimSpace(text)
	if name == "" || text == "" {
		ses.printf("error prepare wants a name and a statement")
		return
	}
	if _, ok := ses.prepped[name]; !ok && len(ses.prepped) >= maxPrepared {
		ses.printf("error too many prepared statements (limit %d per session); re-prepare an existing name", maxPrepared)
		return
	}
	if ses.prepped == nil {
		ses.prepped = make(map[string]*prepared)
	}
	ses.prepped[name] = &prepared{text: text, id: sql.Identify(text, false)}
	ses.printf("ok prepared name=%s", name)
}

// executeCmd submits a prepared statement with bound arguments,
// asynchronously like submit.
func (ses *Session) executeCmd(rest string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		ses.printf("error execute wants a prepared-statement name")
		return
	}
	p, ok := ses.prepped[fields[0]]
	if !ok {
		ses.printf("error no prepared statement named %q", fields[0])
		return
	}
	args := make([]int64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			ses.printf("error execute wants integer arguments, got %q", f)
			return
		}
		args = append(args, v)
	}
	ses.submit(p.text, false, withPrepared(&p.id, args))
}

// fastCmd toggles profile-free fast mode for the session's later
// submissions.
func (ses *Session) fastCmd(arg string) {
	switch strings.ToLower(arg) {
	case "on":
		ses.fast = true
	case "off":
		ses.fast = false
	default:
		ses.printf("error fast wants on or off, got %q", arg)
		return
	}
	ses.printf("ok fast=%v", ses.fast)
}

// timeoutCmd sets the session's per-submission deadline: a positive
// millisecond count bounds later submissions, 0 removes any deadline
// (including the server default), and "default" restores the server
// default.
func (ses *Session) timeoutCmd(arg string) {
	if strings.EqualFold(arg, "default") {
		ses.hasTimeout = false
		ses.printf("ok timeout=default")
		return
	}
	ms, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || ms < 0 {
		ses.printf("error timeout wants a millisecond count >= 0 or default, got %q", arg)
		return
	}
	ses.hasTimeout = true
	ses.timeout = time.Duration(ms) * time.Millisecond
	if ms == 0 {
		ses.printf("ok timeout=off")
		return
	}
	ses.printf("ok timeout=%dms", ms)
}

// safeReport is report behind the session's panic barrier: a panic
// while waiting for or printing one result becomes that submission's
// error line, counted like every other recovered panic, instead of
// killing the connection (blocking reports) or the process
// (asynchronous reporter goroutines).
func (ses *Session) safeReport(t *Ticket, text string) {
	defer func() {
		if r := recover(); r != nil {
			ses.srv.tel.Panics.Inc()
			ses.printf("result id=%d error %s", t.ID, oneLine(newPanicError("session-report", r).Error()))
		}
	}()
	ses.report(t, text)
}

// injectedBlockedWriterDelay is the stall the blocked-writer fault
// injects before a result line is written, simulating a wedged client
// connection.
const injectedBlockedWriterDelay = 2 * time.Millisecond

// report waits for a ticket and prints its result line(s): a result
// line for executed statements (EXPLAIN ANALYZE included), then the
// multi-line explain body when one was rendered. The wait is tied to
// the session context — not context.Background(), which kept reporter
// goroutines (and the session teardown waiting on them) blocked until
// their queries drained even after the peer was gone. A dead session
// has nobody to write to, so a session-cancel wait returns silently.
func (ses *Session) report(t *Ticket, text string) {
	resp, err := t.Wait(ses.ctx)
	if err != nil {
		if ses.ctx.Err() != nil {
			// Dead session: nothing to write. The query context derives
			// from the session's, so the submission is already canceled;
			// wait for it to retire (bounded by one morsel) so teardown
			// leaves no in-flight work behind, then exit silently.
			<-t.Done()
			return
		}
		ses.printf("result id=%d error %s", t.ID, oneLine(err.Error()))
		return
	}
	if f := ses.srv.cfg.Faults; f != nil && f.Fire(faults.BlockedWriter, text) {
		// Stall outside ses.mu: a wedged writer delays this session's
		// lines, never another session or the query path.
		time.Sleep(injectedBlockedWriterDelay)
	}
	ses.mu.Lock()
	defer ses.mu.Unlock()
	if resp.Executed {
		fast := ""
		if resp.Fast {
			fast = " fast=true"
		}
		fmt.Fprintf(ses.out, "result id=%d ok engine=%s sum=%d rows=%d check=%016x time=%.2fms threads=%d morsels=%d cached=%v queued=%s wall=%s%s\n",
			resp.ID, resp.Engine, resp.Result.Sum, resp.Result.Rows, resp.Result.Check,
			resp.Profile.Milliseconds(), resp.Threads, resp.Morsels, resp.CacheHit,
			resp.Queued.Round(roundTo(resp.Queued)), resp.Wall.Round(roundTo(resp.Wall)), fast)
	} else {
		fmt.Fprintf(ses.out, "result id=%d explain engine=%s cached=%v\n", resp.ID, resp.Engine, resp.CacheHit)
	}
	if resp.Explain != "" {
		for _, line := range strings.Split(strings.TrimRight(resp.Explain, "\n"), "\n") {
			fmt.Fprintf(ses.out, "explain id=%d | %s\n", resp.ID, line)
		}
	}
	if ses.out.Flush() != nil {
		ses.cancel()
	}
}

// roundTo keeps printed durations to three significant-ish digits.
func roundTo(d time.Duration) time.Duration {
	switch {
	case d > time.Second:
		return 10 * time.Millisecond
	case d > time.Millisecond:
		return 10 * time.Microsecond
	default:
		return 100 * time.Nanosecond
	}
}

// cancelCmd parses and applies one cancel command.
func (ses *Session) cancelCmd(arg string) {
	id, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		ses.printf("error cancel wants a numeric id, got %q", arg)
		return
	}
	if err := ses.srv.Cancel(id); err != nil {
		ses.printf("error %s", oneLine(err.Error()))
		return
	}
	ses.printf("ok id=%d canceling", id)
}

// printStats prints one stats line.
func (ses *Session) printStats() {
	st := ses.srv.Stats()
	ses.printf("stats inflight=%d queued=%d submitted=%d completed=%d failed=%d canceled=%d rejected=%d fast=%d "+
		"plan-hits=%d plan-misses=%d plan-evictions=%d plan-dedups=%d plan-entries=%d/%d hit-rate=%.2f workers=%d query-threads=%d",
		st.InFlight, st.Queued, st.Submitted, st.Completed, st.Failed, st.Canceled, st.Rejected, st.FastCompleted,
		st.PlanHits, st.PlanMisses, st.PlanEvictions, st.PlanDedups, st.PlanEntries, st.PlanCapacity,
		st.PlanHitRate(), st.Workers, st.QueryThreads)
}

// printMetrics prints the Prometheus exposition over the line
// protocol, each line prefixed so clients can frame it.
func (ses *Session) printMetrics() {
	var b strings.Builder
	if err := ses.srv.WriteMetrics(&b); err != nil {
		ses.printf("error %v", err)
		return
	}
	ses.mu.Lock()
	defer ses.mu.Unlock()
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		fmt.Fprintf(ses.out, "metric | %s\n", line)
	}
	fmt.Fprintf(ses.out, "ok metrics\n")
	if ses.out.Flush() != nil {
		ses.cancel()
	}
}
