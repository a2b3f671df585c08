package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"olapmicro/internal/faults"
)

// serve runs one scripted session and returns its output.
func serve(t *testing.T, s *Server, script string) string {
	t.Helper()
	var out strings.Builder
	if err := s.ServeSession(strings.NewReader(script), &out); err != nil {
		t.Fatalf("session: %v", err)
	}
	return out.String()
}

func TestSessionSubmitAndStats(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, strings.Join([]string{
		"submit select count(*) from nation",
		"wait", // or the query may join the submit's in-flight compile: a dedup, not a hit
		"query select count(*) from nation",
		"stats",
		"quit",
	}, "\n"))
	if !regexp.MustCompile(`(?m)^ok id=1$`).MatchString(out) {
		t.Errorf("missing submit ack:\n%s", out)
	}
	res := regexp.MustCompile(`(?m)^result id=\d+ ok engine=\w+ sum=\d+ rows=1 check=[0-9a-f]{16} time=.*cached=(true|false)`)
	if got := len(res.FindAllString(out, -1)); got != 2 {
		t.Errorf("want 2 result lines, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "ok drained") {
		t.Errorf("wait must ack:\n%s", out)
	}
	if !regexp.MustCompile(`stats inflight=0 queued=0 submitted=2 completed=2 .*plan-hits=1 `).MatchString(out) {
		t.Errorf("stats line wrong:\n%s", out)
	}
}

func TestSessionExplain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, "query explain select count(*) from nation\nquit\n")
	if !strings.Contains(out, "result id=1 explain engine=") {
		t.Errorf("missing explain header:\n%s", out)
	}
	if !strings.Contains(out, "explain id=1 | ") || !strings.Contains(out, "scan nation") {
		t.Errorf("missing explain body:\n%s", out)
	}
}

func TestSessionErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	script := []string{
		"bogus",
		"submit",
		"cancel notanumber",
		"cancel 99",
		"query select broken from nowhere",
	}
	// Session state is bounded: past maxPrepared names a prepare is
	// refused, re-preparing an existing name still replaces it, and the
	// session stays usable.
	for i := 0; i <= maxPrepared; i++ {
		script = append(script, fmt.Sprintf("prepare p%d select count(*) from nation where n_nationkey < ?", i))
	}
	script = append(script,
		"prepare p0 select count(*) from region where r_regionkey < ?",
		"fast on",
		"execute p0 10",
		"quit")
	out := serve(t, s, strings.Join(script, "\n"))
	for _, want := range []string{
		`error unknown command "bogus"`,
		"error submit wants a statement",
		`error cancel wants a numeric id`,
		"error server: no pending query with id 99",
		"result id=1 error",
		fmt.Sprintf("ok prepared name=p%d\n", maxPrepared-1),
		fmt.Sprintf("error too many prepared statements (limit %d per session)", maxPrepared),
		"result id=2 ok engine=Typer sum=5 rows=1 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSessionCancelPath(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	// Submit, then cancel the id; the query may win the race, so accept
	// either a result or a canceled error line for id 1 — but the
	// cancel command itself must ack.
	out := serve(t, s, strings.Join([]string{
		"submit select sum(l_extendedprice) from lineitem",
		"cancel 1",
		"wait",
		"quit",
	}, "\n"))
	if !strings.Contains(out, "ok id=1 canceling") && !strings.Contains(out, "error server: no pending query with id 1") {
		t.Errorf("cancel must ack or report the query already done:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^result id=1 `).MatchString(out) {
		t.Errorf("id 1 must still produce a result line:\n%s", out)
	}
}

// The prepare/execute/fast verbs: named templates bind integer
// arguments per execution, fast mode flags its result lines, and both
// executions of one template return identical sums for identical
// arguments (fast vs measured bit-identity at the protocol surface).
func TestSessionPrepareExecuteFast(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, strings.Join([]string{
		"prepare q select sum(l_extendedprice), count(*) from lineitem where l_quantity < ?",
		"query select sum(l_extendedprice), count(*) from lineitem where l_quantity < 24",
		"execute q 24",
		"wait",
		"fast on",
		"execute q 24",
		"wait",
		"fast off",
		"execute q",
		"execute missing 1",
		"execute q notanint",
		"prepare broken",
		"fast sideways",
		"wait",
		"stats",
		"quit",
	}, "\n"))
	for _, want := range []string{
		"ok prepared name=q",
		"ok fast=true",
		"ok fast=false",
		"error sql: statement wants 1 argument(s), got 0",
		`error no prepared statement named "missing"`,
		`error execute wants integer arguments, got "notanint"`,
		"error prepare wants a name and a statement",
		`error fast wants on or off, got "sideways"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	res := regexp.MustCompile(`(?m)^result id=\d+ ok engine=\w+ sum=(\d+) rows=(\d+) .*$`)
	lines := res.FindAllStringSubmatch(out, -1)
	if len(lines) != 3 {
		t.Fatalf("want 3 result lines (literal, measured execute, fast execute), got %d:\n%s", len(lines), out)
	}
	for i, m := range lines[1:] {
		if m[1] != lines[0][1] || m[2] != lines[0][2] {
			t.Errorf("execution %d sum/rows %s/%s differ from the literal run's %s/%s:\n%s",
				i+1, m[1], m[2], lines[0][1], lines[0][2], out)
		}
	}
	fast := regexp.MustCompile(`(?m)^result id=\d+ ok .*fast=true$`).FindAllString(out, -1)
	if len(fast) != 1 {
		t.Errorf("want exactly 1 fast-flagged result line, got %d:\n%s", len(fast), out)
	}
	// The literal text and both executions share one plan: a miss and two
	// hits. The arity-error `execute q` is one more lookup — a miss under
	// its own zero-argument key, never stored — on its own goroutine,
	// hence the wait before stats.
	if !regexp.MustCompile(`stats .*plan-hits=2 plan-misses=2 `).MatchString(out) {
		t.Errorf("one plan should have served 2 of the 3 runs, and every submission should be one lookup:\n%s", out)
	}
}

// Error lines cite line:column of the text the client sent — whatever
// its spacing and case — and a statement the client wrote without a `?`
// never hears about placeholders: auto-parameterization is an identity,
// not a second compilation unit.
func TestSessionErrorsCiteClientText(t *testing.T) {
	const (
		unknown   = "SELECT    count(*)   FROM   orders   WHERE   o_totlprice   <   5"
		truncated = "SELECT   COUNT(*)   FROM   orders   WHERE   o_totalprice   <"
		noTable   = "select sum(x)  from   nosuch   where x between 3 and 7"
		explicit  = "select count(*) from orders where o_totlprice < ?"
	)
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, "query "+unknown+"\nquery "+truncated+"\nquery "+noTable+"\nquery "+explicit+"\nquit\n")
	for _, want := range []string{
		fmt.Sprintf(`result id=1 error 1:%d: unknown column "o_totlprice"`, strings.Index(unknown, "o_totlprice")+1), // 1:46
		fmt.Sprintf("result id=2 error 1:%d: expected expression, found end of input", len(truncated)+1),
		fmt.Sprintf(`result id=3 error 1:%d: unknown table "nosuch"`, strings.Index(noTable, "nosuch")+1),
		fmt.Sprintf(`1:%d: unknown column "o_totlprice"`, strings.Index(explicit, "o_totlprice")+1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "parameterized") != strings.HasPrefix(line, "result id=4 ") {
			t.Errorf("only the statement written with a `?` may mention parameters: %q", line)
		}
	}
}

// One statement, three forms, one entry: `query`, `submit` and `execute`
// of the same template and arguments share a plan (cached=true from the
// second form on), and N distinct literal tuples of one template hold N
// entries — there is no template entry beside them.
func TestSessionFormsShareOnePlan(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, strings.Join([]string{
		"prepare q select count(*) from orders where o_totalprice < ?",
		"query select count(*) from orders where o_totalprice < 100",
		"submit SELECT COUNT(*)   FROM orders WHERE o_totalprice < 100;",
		"wait",
		"execute q 100",
		"wait",
		"query select count(*) from orders where o_totalprice < 101",
		"query select count(*) from orders where o_totalprice < 102",
		"stats",
		"quit",
	}, "\n"))
	cached := regexp.MustCompile(`(?m)^result id=(\d+) ok .* cached=(true|false) `).FindAllStringSubmatch(out, -1)
	if len(cached) != 5 {
		t.Fatalf("want 5 result lines, got %d:\n%s", len(cached), out)
	}
	for _, m := range cached {
		if want := m[1] == "2" || m[1] == "3"; (m[2] == "true") != want {
			t.Errorf("id=%s cached=%s, want %v (only the submit and execute forms of literal 100 reuse a plan):\n%s", m[1], m[2], want, out)
		}
	}
	if !regexp.MustCompile(`stats .*plan-hits=2 plan-misses=3 .*plan-entries=3/64 `).MatchString(out) {
		t.Errorf("3 distinct literals of one template are 3 entries and 3 misses:\n%s", out)
	}
}

// The timeout verb: well-formed values ack and steer later
// submissions, malformed ones error without disturbing session state,
// and a session-set deadline actually expires a query.
func TestSessionTimeoutVerb(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, strings.Join([]string{
		"timeout",
		"timeout abc",
		"timeout -5",
		"timeout 0",
		"timeout 60000",
		"query select count(*) from nation",
		"timeout default",
		"query select count(*) from nation",
		"quit",
	}, "\n"))
	for _, want := range []string{
		`error timeout wants a millisecond count >= 0 or default, got ""`,
		`error timeout wants a millisecond count >= 0 or default, got "abc"`,
		`error timeout wants a millisecond count >= 0 or default, got "-5"`,
		"ok timeout=off",
		"ok timeout=60000ms",
		"ok timeout=default",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Both queries ran under generous-or-no deadlines: two ok results.
	if got := len(regexp.MustCompile(`(?m)^result id=\d+ ok `).FindAllString(out, -1)); got != 2 {
		t.Errorf("want 2 ok result lines, got %d:\n%s", got, out)
	}
}

// A server-wide default deadline reaches session queries, surfaces as
// a one-line protocol error, and "timeout 0" opts the session out.
func TestSessionDefaultDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, DefaultTimeout: time.Nanosecond})
	out := serve(t, s, strings.Join([]string{
		"query select count(*) from nation",
		"timeout 0",
		"query select count(*) from nation",
		"quit",
	}, "\n"))
	if !regexp.MustCompile(`(?m)^result id=1 error .*deadline exceeded.*$`).MatchString(out) {
		t.Errorf("missing one-line deadline error for id 1:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^result id=2 ok `).MatchString(out) {
		t.Errorf("timeout 0 must lift the server default for id 2:\n%s", out)
	}
}

// An injected writer stall delays the result line but corrupts
// nothing: the line still arrives intact and the fault demonstrably
// fired.
func TestSessionBlockedWriterFault(t *testing.T) {
	inj := faults.New(7)
	inj.Enable(faults.BlockedWriter, 1, 0)
	s := newTestServer(t, Config{Workers: 2, Faults: inj})
	out := serve(t, s, strings.Join([]string{
		"submit select count(*) from nation",
		"wait",
		"quit",
	}, "\n"))
	if !regexp.MustCompile(`(?m)^result id=1 ok `).MatchString(out) {
		t.Errorf("blocked-writer run must still report:\n%s", out)
	}
	if inj.Count(faults.BlockedWriter) == 0 {
		t.Error("blocked-writer fault never fired")
	}
}

// brokenWriter fails every write — a peer that hung up.
type brokenWriter struct{}

func (brokenWriter) Write(p []byte) (int, error) {
	return 0, fmt.Errorf("peer gone")
}

// A dead peer must not keep the session's queries running: the first
// failed write cancels the session context, so pending submissions
// stop (as canceled or completed) and ServeSession returns instead of
// serving nobody.
// Regression for report's old t.Wait(context.Background()): a
// reporter goroutine blocked on a pending query must exit promptly
// when the session is canceled (the peer hung up mid-wait), not wait
// out the query on its own schedule — and it must not write a result
// line to the dead peer. The session's query context derives from the
// session context, so cancel propagates: the queued query retires
// without running and the reporter returns.
func TestSessionReporterExitsOnHangup(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueryThreads: 1, MaxInFlight: 1, MaxQueue: 64})
	// Occupy the single admission slot and a stretch of queue with
	// independent (never-canceled) submissions so the session's own
	// query is still pending when the peer disappears.
	var blockers []*Ticket
	for i := 0; i < 16; i++ {
		bt, err := s.QueryAsync(context.Background(), testQueries[i%len(testQueries)])
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, bt)
	}
	var buf bytes.Buffer
	ses := &Session{srv: s, out: bufio.NewWriter(&buf)}
	ses.ctx, ses.cancel = context.WithCancel(context.Background())
	tk, err := s.QueryAsync(ses.ctx, testQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { ses.report(tk, testQueries[0]); close(done) }()
	ses.cancel() // the peer hangs up mid-wait
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reporter still blocked 10s after session cancel; report must wait with the session context")
	}
	if got := buf.String(); got != "" {
		t.Errorf("canceled session's reporter wrote to the dead peer: %q", got)
	}
	for _, bt := range blockers {
		if _, err := bt.Wait(context.Background()); err != nil {
			t.Errorf("blocker query: %v", err)
		}
	}
}

func TestSessionDeadPeerCancels(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	script := strings.Join([]string{
		"submit select sum(l_extendedprice) from lineitem",
		"submit select sum(l_quantity) from lineitem",
		"wait",
		"quit",
	}, "\n")
	if err := s.ServeSession(strings.NewReader(script), brokenWriter{}); err != nil {
		t.Fatalf("session: %v", err)
	}
	st := s.Stats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("dead session left work behind: %+v", st)
	}
	if st.Completed+st.Canceled != st.Submitted {
		t.Errorf("submissions unaccounted for: %+v", st)
	}
}

// panicReader serves r, then panics where it would report EOF: a fault
// in the connection's command loop, outside any query.
type panicReader struct{ r io.Reader }

func (p panicReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if err == io.EOF {
		panic("reader exploded")
	}
	return n, err
}

// A panic in the command loop ends that session with a PanicError and
// a counted recovery; the process and later sessions keep serving.
func TestSessionCommandLoopPanicRecovered(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	var out strings.Builder
	err := s.ServeSession(panicReader{strings.NewReader("stats\n")}, &out)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Op != "session" {
		t.Fatalf("ServeSession = %v, want a *PanicError from op session", err)
	}
	if !strings.HasPrefix(out.String(), "stats ") {
		t.Errorf("lines before the panic must be served:\n%s", out.String())
	}
	if got := s.Stats().PanicsRecovered; got != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", got)
	}
	if !regexp.MustCompile(`(?m)^result id=\d+ ok `).MatchString(serve(t, s, "query select count(*) from nation\nquit")) {
		t.Error("a later session must still be served")
	}
}
