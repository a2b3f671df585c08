package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"

	"olapmicro/internal/faults"
	"olapmicro/internal/obs"
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
//	cancel <id>     cancel one of this session's pending submissions
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

	// mu serializes writes, because result lines come from many
	// goroutines; it also guards line, the scratch buffer lines are
	// encoded into, and idle.
	//
	// Output is flushed only when the command loop is about to block,
	// on its reader or on a ticket, so a pipelined batch costs one
	// write. idle is set while the loop is blocked; a reporter then
	// flushes the line it wrote, so no result waits on input that may
	// never come. ready counts this session's finished submissions
	// whose result line is not written yet (added once the lifecycle
	// returns, taken away by emit): while it is above zero, a writer is
	// about to come, and the last of them flushes for all.
	//
	// running counts the asynchronous submissions whose lifecycle has
	// not returned. Before the loop blocks on its reader with running
	// above zero, it yields its processor: the scheduler runs the
	// goroutines the loop just started first, so a batch's microsecond
	// statements write their results while the loop is not idle, and
	// the loop's one flush carries acks and results together. A yield
	// can hand the loop back before they ran (an idle processor takes
	// it up, or the scheduler's fairness check serves the global queue
	// first), so the loop yields once per running submission, stopping
	// as soon as none runs. A submission still running after that
	// flushes its own line as before. No line waits on input or on
	// another statement: each yield delays the loop's flush only until
	// a processor takes the loop up again, at once when one is idle,
	// else at a busy one's next scheduling point.
	mu      sync.Mutex
	line    []byte
	idle    bool
	ready   atomic.Int64
	running atomic.Int64
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

// maxLine bounds a command line, its newline included; a longer line
// ends the session with bufio.ErrTooLong.
const maxLine = 1 << 20

// ServeSession speaks the protocol on r/w until quit or EOF; it
// returns the reader's error, if any. Submissions it accepted are
// waited for before it returns (canceled instead if the peer is
// gone). A panic in the command loop, which runs on the connection's
// goroutine outside every query's barrier, ends only this session: it
// cancels the session's submissions and returns a *PanicError.
func (s *Server) ServeSession(r io.Reader, w io.Writer) error {
	return s.newSession(w).serve(r)
}

// newSession returns a session that answers on w.
func (s *Server) newSession(w io.Writer) *Session {
	ses := &Session{srv: s, out: bufio.NewWriter(countedWriter{w, s.tel.SessionWrites})}
	ses.ctx, ses.cancel = context.WithCancel(context.Background())
	return ses
}

// countedWriter counts the writes that reach a session's peer.
type countedWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c countedWriter) Write(p []byte) (int, error) {
	c.n.Inc()
	return c.w.Write(p)
}

// serve runs the command loop on r, as ServeSession describes.
func (ses *Session) serve(r io.Reader) (err error) {
	defer ses.cancel()
	defer ses.pending.Wait()
	defer ses.setIdle(true) // from here on, reporters flush their own lines
	defer func() {
		if v := recover(); v != nil {
			ses.srv.tel.Panics.Inc()
			ses.cancel()
			err = newPanicError("session", v)
		}
	}()
	in := bufio.NewReader(r)
	for {
		line, rerr := ses.readLine(in)
		if ses.command(bytes.TrimSpace(line)) || rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// readLine returns the next line, newline included. When no complete
// line is buffered, the read may block, so the session goes idle
// around it: what the loop wrote is flushed first, after yielding to
// the session's running submissions (see Session).
func (ses *Session) readLine(in *bufio.Reader) ([]byte, error) {
	if buffered, _ := in.Peek(in.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
		for n := ses.running.Load(); n > 0 && ses.running.Load() > 0; n-- {
			runtime.Gosched()
		}
		ses.setIdle(true)
		defer ses.setIdle(false)
	}
	line, err := in.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	// Longer than the reader's buffer: gather it, as bufio.Scanner with
	// a maxLine buffer would, which fails once maxLine bytes hold no
	// newline.
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull && len(long) < maxLine {
		line, err = in.ReadSlice('\n')
		long = append(long, line...)
	}
	if len(long) > maxLine || (err != nil && len(long) == maxLine) {
		return nil, bufio.ErrTooLong
	}
	return long, err
}

// command runs one trimmed command line and reports whether it ends
// the session.
func (ses *Session) command(line []byte) (quit bool) {
	if len(line) == 0 {
		return false
	}
	cmd, rest, _ := bytes.Cut(line, []byte(" "))
	rest = bytes.TrimSpace(rest)
	var buf [16]byte
	switch string(lowerASCII(buf[:0], cmd)) {
	case "quit", "exit":
		return true
	case "wait":
		ses.setIdle(true)
		ses.pending.Wait()
		ses.setIdle(false)
		ses.emit(nil, func(b []byte) []byte { return append(b, "ok drained\n"...) })
	case "stats":
		ses.printStats()
	case "metrics":
		ses.printMetrics()
	case "cancel":
		ses.cancelCmd(rest)
	case "submit":
		ses.submit(string(rest), false, nil, nil)
	case "query":
		ses.submit(string(rest), true, nil, nil)
	case "prepare":
		ses.prepareCmd(string(rest))
	case "execute":
		ses.executeCmd(rest)
	case "fast":
		ses.fastCmd(rest)
	case "timeout":
		ses.timeoutCmd(rest)
	default:
		ses.printf("error unknown command %q (want submit, query, prepare, execute, fast, timeout, cancel, stats, metrics, wait, quit)", cmd)
	}
	return false
}

// lowerASCII appends b lower-cased to dst. For the protocol's verbs it
// decides exactly what strings.ToLower would: the only non-ASCII letter
// that lowers to ASCII is the Kelvin sign, and no verb has a k.
func lowerASCII(dst, b []byte) []byte {
	for _, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// setIdle marks the command loop blocked or running again.
func (ses *Session) setIdle(idle bool) {
	ses.mu.Lock()
	defer ses.mu.Unlock()
	ses.idle = idle
	ses.flushIfIdle()
}

// emit writes the whole lines enc appends to the scratch buffer. When
// t is given, they are t's result (enc nil: t's result is dropped).
func (ses *Session) emit(t *Ticket, enc func(b []byte) []byte) {
	ses.mu.Lock()
	defer ses.mu.Unlock()
	if enc != nil {
		ses.line = enc(ses.line[:0])
		_, _ = ses.out.Write(ses.line) // a failed write sticks; the next flush reports it
	}
	if t != nil {
		ses.ready.Add(-1)
	}
	ses.flushIfIdle()
}

// flushIfIdle flushes while the loop is blocked and no other result
// is about to be written. A flush failure means the peer is gone:
// cancel the session so its remaining queries stop at their next
// morsel boundary instead of running for nobody.
func (ses *Session) flushIfIdle() {
	if ses.idle && ses.ready.Load() == 0 && ses.out.Flush() != nil {
		ses.cancel()
	}
}

// printf writes one line that is off the per-statement path: errors,
// stats.
func (ses *Session) printf(format string, args ...any) {
	ses.emit(nil, func(b []byte) []byte { return append(fmt.Appendf(b, format, args...), '\n') })
}

// submit accepts one statement; blocking waits for the result line.
// When p is given, text is its statement and args bind it.
func (ses *Session) submit(text string, blocking bool, p *prepared, args []int64) {
	if text == "" {
		ses.printf("error submit wants a statement")
		return
	}
	t := &Ticket{sc: submitConfig{owner: ses}}
	if ses.fast {
		WithFast()(&t.sc)
	}
	if ses.hasTimeout {
		WithTimeout(ses.timeout)(&t.sc)
	}
	if p != nil {
		withPrepared(&p.id, args)(&t.sc)
	}
	if err := ses.srv.admit(ses.ctx, t); err != nil {
		ses.printf("error %s", oneLine(err.Error()))
		return
	}
	if blocking {
		// The loop runs the statement itself: it would only wait for it
		// otherwise, and waiting is blocking, so the session is idle.
		ses.setIdle(true)
		ses.srv.run(t, text)
		ses.ready.Add(1)
		ses.setIdle(false)
		ses.safeReport(t, text)
		return
	}
	ses.emit(nil, func(b []byte) []byte { return append(strconv.AppendUint(append(b, "ok id="...), t.ID, 10), '\n') })
	ses.pending.Add(1)
	ses.running.Add(1)
	go func() {
		defer ses.pending.Done()
		ses.srv.run(t, text)
		ses.ready.Add(1)
		ses.running.Add(-1)
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
	ses.emit(nil, func(b []byte) []byte { return append(append(append(b, "ok prepared name="...), name...), '\n') })
}

// executeCmd submits a prepared statement with bound arguments,
// asynchronously like submit. It splits its fields as strings.Fields
// would, without allocating them.
func (ses *Session) executeCmd(rest []byte) {
	name, rest := field(rest)
	if len(name) == 0 {
		ses.printf("error execute wants a prepared-statement name")
		return
	}
	p, ok := ses.prepped[string(name)]
	if !ok {
		ses.printf("error no prepared statement named %q", name)
		return
	}
	var args []int64
	for f, more := field(rest); len(f) > 0; f, more = field(more) {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			ses.printf("error execute wants integer arguments, got %q", f)
			return
		}
		args = append(args, v)
	}
	ses.submit(p.text, false, p, args)
}

// field splits off b's first whitespace-separated field.
func field(b []byte) (f, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// fastCmd toggles profile-free fast mode for the session's later
// submissions.
func (ses *Session) fastCmd(arg []byte) {
	var buf [8]byte
	switch string(lowerASCII(buf[:0], arg)) {
	case "on":
		ses.fast = true
	case "off":
		ses.fast = false
	default:
		ses.printf("error fast wants on or off, got %q", arg)
		return
	}
	ses.emit(nil, func(b []byte) []byte { return append(strconv.AppendBool(append(b, "ok fast="...), ses.fast), '\n') })
}

// timeoutCmd sets the session's per-submission deadline: a positive
// millisecond count bounds later submissions, 0 removes any deadline
// (including the server default), and "default" restores the server
// default.
func (ses *Session) timeoutCmd(arg []byte) {
	if bytes.EqualFold(arg, []byte("default")) {
		ses.hasTimeout = false
		ses.emit(nil, func(b []byte) []byte { return append(b, "ok timeout=default\n"...) })
		return
	}
	ms, err := strconv.ParseInt(string(arg), 10, 64)
	if err != nil || ms < 0 {
		ses.printf("error timeout wants a millisecond count >= 0 or default, got %q", arg)
		return
	}
	ses.hasTimeout = true
	ses.timeout = time.Duration(ms) * time.Millisecond
	if ms == 0 {
		ses.emit(nil, func(b []byte) []byte { return append(b, "ok timeout=off\n"...) })
		return
	}
	ses.emit(nil, func(b []byte) []byte {
		return append(strconv.AppendInt(append(b, "ok timeout="...), ms, 10), "ms\n"...)
	})
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
			perr := newPanicError("session-report", r)
			ses.emit(t, func(b []byte) []byte { return appendFailed(b, t.ID, perr) })
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
			ses.emit(t, nil)
			return
		}
		ses.emit(t, func(b []byte) []byte { return appendFailed(b, t.ID, err) })
		return
	}
	if f := ses.srv.cfg.Faults; f != nil && f.Fire(faults.BlockedWriter, text) {
		// Stall outside ses.mu: a wedged writer delays this session's
		// lines, never another session or the query path.
		time.Sleep(injectedBlockedWriterDelay)
	}
	ses.emit(t, func(b []byte) []byte { return appendResult(b, resp) })
}

// appendResult encodes resp's result line and, when one was rendered,
// its explain body, one "explain id=N | " line per report line.
func appendResult(b []byte, resp *Response) []byte {
	b = strconv.AppendUint(append(b, "result id="...), resp.ID, 10)
	if resp.Executed {
		b = append(append(b, " ok engine="...), resp.Engine...)
		b = strconv.AppendInt(append(b, " sum="...), resp.Result.Sum, 10)
		b = strconv.AppendInt(append(b, " rows="...), resp.Result.Rows, 10)
		b = append(b, " check="...)
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, "0123456789abcdef"[resp.Result.Check>>shift&0xf])
		}
		if ms := resp.Profile.Milliseconds(); math.Float64bits(ms) == 0 {
			b = append(b, " time=0.00"...) // fast mode's; AppendFloat would take its slow exact path
		} else {
			b = strconv.AppendFloat(append(b, " time="...), ms, 'f', 2, 64)
		}
		b = strconv.AppendInt(append(b, "ms threads="...), int64(resp.Threads), 10)
		b = strconv.AppendInt(append(b, " morsels="...), int64(resp.Morsels), 10)
		b = strconv.AppendBool(append(b, " cached="...), resp.CacheHit)
		b = appendDuration(append(b, " queued="...), resp.Queued.Round(roundTo(resp.Queued)))
		b = appendDuration(append(b, " wall="...), resp.Wall.Round(roundTo(resp.Wall)))
		if resp.Fast {
			b = append(b, " fast=true"...)
		}
	} else {
		b = append(append(b, " explain engine="...), resp.Engine...)
		b = strconv.AppendBool(append(b, " cached="...), resp.CacheHit)
	}
	b = append(b, '\n')
	if resp.Explain != "" {
		var buf [40]byte
		prefix := append(strconv.AppendUint(append(buf[:0], "explain id="...), resp.ID, 10), " | "...)
		b = appendLines(b, prefix, resp.Explain)
	}
	return b
}

// appendLines appends each line of text, a final newline ignored, as
// one protocol line led by prefix.
func appendLines(b, prefix []byte, text string) []byte {
	text = strings.TrimRight(text, "\n")
	for more := true; more; {
		var line string
		line, text, more = strings.Cut(text, "\n")
		b = append(append(append(b, prefix...), line...), '\n')
	}
	return b
}

// appendFailed encodes the result line of a submission that failed.
func appendFailed(b []byte, id uint64, err error) []byte {
	b = strconv.AppendUint(append(b, "result id="...), id, 10)
	return append(append(append(b, " error "...), oneLine(err.Error())...), '\n')
}

// appendDuration appends d as d.String() spells it, without the
// allocation.
func appendDuration(b []byte, d time.Duration) []byte {
	u := uint64(d)
	if d < 0 {
		b, u = append(b, '-'), -u
	}
	unit, scale := "s", uint64(time.Second)
	switch {
	case u == 0:
		return append(b, "0s"...)
	case u < uint64(time.Microsecond):
		unit, scale = "ns", 1
	case u < uint64(time.Millisecond):
		unit, scale = "µs", uint64(time.Microsecond)
	case u < uint64(time.Second):
		unit, scale = "ms", uint64(time.Millisecond)
	case u >= uint64(time.Minute):
		if h := u / uint64(time.Hour); h > 0 {
			b = append(strconv.AppendUint(b, h, 10), 'h')
		}
		b = append(strconv.AppendUint(b, u/uint64(time.Minute)%60, 10), 'm')
		u %= uint64(time.Minute)
	}
	b = strconv.AppendUint(b, u/scale, 10)
	if frac := u % scale; frac != 0 {
		b = append(b, '.')
		for digit := scale / 10; frac != 0; digit /= 10 {
			b = append(b, byte('0'+frac/digit))
			frac %= digit
		}
	}
	return append(b, unit...)
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

// cancelCmd parses and applies one cancel command. It reaches only
// this session's own submissions.
func (ses *Session) cancelCmd(arg []byte) {
	id, err := strconv.ParseUint(string(arg), 10, 64)
	if err != nil {
		ses.printf("error cancel wants a numeric id, got %q", arg)
		return
	}
	if err := ses.srv.cancel(id, ses); err != nil {
		ses.printf("error %s", oneLine(err.Error()))
		return
	}
	ses.emit(nil, func(b []byte) []byte {
		return append(strconv.AppendUint(append(b, "ok id="...), id, 10), " canceling\n"...)
	})
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
	var text strings.Builder
	if err := ses.srv.WriteMetrics(&text); err != nil {
		ses.printf("error %v", err)
		return
	}
	ses.emit(nil, func(b []byte) []byte {
		return append(appendLines(b, []byte("metric | "), text.String()), "ok metrics\n"...)
	})
}
