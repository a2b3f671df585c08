package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"olapmicro/internal/engine"
	"olapmicro/internal/tmam"
)

// legacyResult is the result encoding the protocol has always spoken,
// as the fmt format it was written with; the append encoder must
// reproduce it byte for byte.
func legacyResult(resp *Response) string {
	var b strings.Builder
	if resp.Executed {
		fast := ""
		if resp.Fast {
			fast = " fast=true"
		}
		fmt.Fprintf(&b, "result id=%d ok engine=%s sum=%d rows=%d check=%016x time=%.2fms threads=%d morsels=%d cached=%v queued=%s wall=%s%s\n",
			resp.ID, resp.Engine, resp.Result.Sum, resp.Result.Rows, resp.Result.Check,
			resp.Profile.Milliseconds(), resp.Threads, resp.Morsels, resp.CacheHit,
			resp.Queued.Round(roundTo(resp.Queued)), resp.Wall.Round(roundTo(resp.Wall)), fast)
	} else {
		fmt.Fprintf(&b, "result id=%d explain engine=%s cached=%v\n", resp.ID, resp.Engine, resp.CacheHit)
	}
	if resp.Explain != "" {
		for _, line := range strings.Split(strings.TrimRight(resp.Explain, "\n"), "\n") {
			fmt.Fprintf(&b, "explain id=%d | %s\n", resp.ID, line)
		}
	}
	return b.String()
}

func TestResultEncoderParity(t *testing.T) {
	durations := []time.Duration{
		0, 1, 99, 100, 149, 150, 999, time.Microsecond, 1234 * time.Nanosecond,
		time.Millisecond - 1, time.Millisecond, time.Millisecond + 1, 1500 * time.Microsecond,
		12345678, time.Second - 1, time.Second, time.Second + 1, 1234567890,
		time.Minute - 1, time.Minute, 90*time.Minute + 5*time.Millisecond, 49 * time.Hour,
	}
	profiles := []float64{0, 1e-9, 0.000004999, 0.000005, 0.0123456, 12345.678, 9e9, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	checks := []uint64{0, 1, 0xabcd, 0x0000ffff00000000, 0x0123456789abcdef, math.MaxUint64}
	sums := []int64{0, -1, 42, -987654321, math.MinInt64, math.MaxInt64}
	var resps []*Response
	for i, d := range durations {
		resps = append(resps, &Response{
			ID: uint64(i) * 7919, Engine: "Typer", Executed: true,
			Result:  engine.Result{Sum: sums[i%len(sums)], Rows: int64(i) - 3, Check: checks[i%len(checks)]},
			Profile: tmam.Profile{Seconds: profiles[i%len(profiles)]},
			Threads: i % 5, Morsels: i * 3, CacheHit: i%2 == 0, Fast: i%3 == 0,
			Queued: d, Wall: durations[len(durations)-1-i],
		})
	}
	for i, sec := range profiles {
		resps = append(resps, &Response{ID: math.MaxUint64 - uint64(i), Engine: "Tectorwise", Executed: true,
			Profile: tmam.Profile{Seconds: sec}, Result: engine.Result{Sum: sums[i%len(sums)], Check: checks[i%len(checks)]}})
	}
	resps = append(resps,
		&Response{ID: 3, Engine: "Typer", Explain: "scan nation\n  filter n_nationkey < 5\n"},
		&Response{ID: 4, Engine: "Tectorwise", CacheHit: true, Explain: "one line, no newline"},
		&Response{ID: 5, Engine: "Typer", Executed: true, Threads: 1, Wall: 3 * time.Millisecond,
			Result: engine.Result{Sum: -5, Rows: 1, Check: 0xf}, Profile: tmam.Profile{Seconds: 0.00123},
			Explain: "predicted vs observed\n\n  timings (host wall):\n"},
	)
	for _, resp := range resps {
		want := legacyResult(resp)
		if got := string(appendResult(nil, resp)); got != want {
			t.Errorf("encoder differs from the legacy format:\n got %q\nwant %q", got, want)
		}
	}
	err := errors.New("sql: boom\non two lines")
	if got, want := string(appendFailed(nil, 17, err)), fmt.Sprintf("result id=%d error %s\n", 17, oneLine(err.Error())); got != want {
		t.Errorf("failure line %q, want %q", got, want)
	}
}

// appendDuration spells every duration as time.Duration.String does.
func TestAppendDurationMatchesString(t *testing.T) {
	ds := []time.Duration{math.MinInt64, math.MaxInt64, -1, -time.Hour, 0}
	for d := time.Duration(1); d > 0 && d < math.MaxInt64/7; d = d*7 + 3 {
		ds = append(ds, d, -d, d.Round(10*time.Microsecond), d.Round(time.Second))
	}
	for _, d := range ds {
		if got, want := string(appendDuration(nil, d)), d.String(); got != want {
			t.Errorf("appendDuration(%d) = %q, want %q", int64(d), got, want)
		}
	}
}

// Every ok line the command loop prints, against the format it was
// printed with.
func TestSessionOKLinesParity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := serve(t, s, strings.Join([]string{
		"fast on", "FAST Off", "timeout 0", "timeout 250", "timeout DEFAULT",
		"prepare p select count(*) from nation where n_nationkey < ?",
		"submit select count(*) from nation", "wait", "metrics", "quit",
	}, "\n"))
	for _, want := range []string{
		fmt.Sprintf("ok fast=%v\n", true), fmt.Sprintf("ok fast=%v\n", false),
		"ok timeout=off\n", fmt.Sprintf("ok timeout=%dms\n", 250), "ok timeout=default\n",
		fmt.Sprintf("ok prepared name=%s\n", "p"), fmt.Sprintf("ok id=%d\n", 1),
		"ok drained\n", "metric | # TYPE ", "\nok metrics\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// liveSession is a session over pipes that stay open until close: what
// it answers must arrive without any further input.
type liveSession struct {
	in    *io.PipeWriter
	lines chan string
	done  chan error
}

func startSession(t *testing.T, s *Server) *liveSession {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	ls := &liveSession{in: inW, lines: make(chan string, 64), done: make(chan error, 1)}
	go func() {
		ls.done <- s.ServeSession(inR, outW)
		outW.Close()
	}()
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			ls.lines <- sc.Text()
		}
		close(ls.lines)
	}()
	t.Cleanup(func() { ls.close(t) })
	return ls
}

// send delivers text to the session in one write, so one read.
func (ls *liveSession) send(t *testing.T, text string) {
	t.Helper()
	if _, err := io.WriteString(ls.in, text); err != nil {
		t.Fatal(err)
	}
}

// next returns the session's next line, failing if none arrives.
func (ls *liveSession) next(t *testing.T) string {
	t.Helper()
	select {
	case line, ok := <-ls.lines:
		if !ok {
			t.Fatal("session output ended")
		}
		return line
	case <-time.After(10 * time.Second):
		t.Fatal("no line within 10s: a line was held waiting for input")
	}
	return ""
}

func (ls *liveSession) close(t *testing.T) {
	ls.in.Close()
	select {
	case err := <-ls.done:
		if err != nil {
			t.Errorf("session: %v", err)
		}
		ls.done <- nil
	case <-time.After(10 * time.Second):
		t.Error("session did not end 10s after its input closed")
	}
}

// Coalescing never strands a line: over input that is never closed, a
// lone query, a lone submit and an async result that finishes while
// the loop waits on a synchronous query all arrive.
func TestSessionNeverHoldsAResult(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ls := startSession(t, s)
	ls.send(t, "query select count(*) from nation\n")
	if line := ls.next(t); !strings.HasPrefix(line, "result id=1 ok ") {
		t.Fatalf("lone query answered %q", line)
	}
	ls.send(t, "submit select count(*) from region\n")
	if line := ls.next(t); line != "ok id=2" {
		t.Fatalf("lone submit acked %q", line)
	}
	if line := ls.next(t); !strings.HasPrefix(line, "result id=2 ok ") {
		t.Fatalf("lone submit answered %q", line)
	}
	ls.send(t, "submit select count(*) from nation\nquery "+testQueries[0]+"\n")
	got := map[string]bool{}
	for i := 0; i < 3; i++ {
		got[regexp.MustCompile(`^(ok id=\d+|result id=\d+ ok)`).FindString(ls.next(t))] = true
	}
	for _, want := range []string{"ok id=3", "result id=3 ok", "result id=4 ok"} {
		if !got[want] {
			t.Errorf("missing %q among %v", want, got)
		}
	}
}

// gatedWriter counts writes; once armed, it holds the first write
// after arming until release, given the bytes written, returns.
type gatedWriter struct {
	release func(p []byte)
	mu      sync.Mutex
	armed   bool
	writes  int
	buf     bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	gate := w.armed && w.writes == 0
	if w.armed {
		w.writes++
	}
	w.mu.Unlock()
	if gate {
		w.release(p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) arm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = true
	w.buf.Reset()
}

func (w *gatedWriter) snapshot() (int, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes, w.buf.String()
}

// waitLines polls w until its output holds n lines or 10s pass.
func (w *gatedWriter) waitLines(n int) (writes int, out string) {
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if writes, out = w.snapshot(); strings.Count(out, "\n") >= n {
			break
		}
	}
	return writes, out
}

// A pipelined batch is flushed together: a query and four submits
// arriving in one read reach the peer in at most two writes. The first
// flush is held here until every statement has finished and its result
// is written or counted as about to be, so whatever the scheduling,
// everything written behind it goes out in one more.
// (The query leads the batch because the loop runs it itself: a flush
// before it could not be held without holding the query too.)
func TestSessionCoalescesBatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	var ses *Session
	w := &gatedWriter{release: func(p []byte) {
		// The held flush carries the query's result and the async
		// results written before it; every other async result must be
		// about to be written, so the last of them flushes for all.
		written := int64(bytes.Count(p, []byte("result id="))) - 1
		for end := time.Now().Add(10 * time.Second); written+ses.ready.Load() < 4 && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}}
	ses = s.newSession(w)
	inR, inW := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- ses.serve(inR) }()
	if _, err := io.WriteString(inW, "fast on\n"); err != nil {
		t.Fatal(err)
	}
	if _, out := w.waitLines(1); out != "ok fast=true\n" {
		t.Fatalf("fast on answered %q", out)
	}
	w.arm()
	const q = "select count(*) from nation\n"
	if _, err := io.WriteString(inW, "query "+q+"submit "+q+"submit "+q+"submit "+q+"submit "+q); err != nil {
		t.Fatal(err)
	}
	writes, out := w.waitLines(9)
	if n := strings.Count(out, "\n"); n != 9 {
		t.Fatalf("want 9 lines (4 acks, 5 results), got %d:\n%s", n, out)
	}
	if writes > 2 {
		t.Errorf("batch took %d writes, want at most 2:\n%s", writes, out)
	}
	inW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// A peer that is gone under pipelined input is found at the loop's
// first flush, before the session's input ends: the session's
// in-flight work is canceled while the connection is still open.
func TestSessionBrokenWriterPipelined(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueryThreads: 1})
	inR, inW := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- s.ServeSession(inR, brokenWriter{}) }()
	var batch strings.Builder
	for _, q := range testQueries {
		batch.WriteString("submit " + q + "\n")
	}
	if _, err := io.WriteString(inW, batch.String()); err != nil {
		t.Fatal(err)
	}
	var st Stats
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if st = s.Stats(); st.InFlight == 0 && st.Queued == 0 && st.Submitted == uint64(len(testQueries)) {
			break
		}
	}
	if st.InFlight != 0 || st.Queued != 0 || st.Canceled == 0 {
		t.Errorf("dead peer's work not canceled while its input was open: %+v", st)
	}
	inW.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// The line cap is bufio.Scanner's with a 1 MiB buffer, which the
// command loop used to read with: a line of 1 MiB, its newline
// included, is served; one byte more ends the session with
// bufio.ErrTooLong, with or without a newline.
func TestSessionLineCap(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		content int
		newline bool
		ok      bool
	}{
		{maxLine - 1, true, true},
		{maxLine, true, false},
		{maxLine - 1, false, true},
		{maxLine, false, false},
	} {
		input := "timeout " + strings.Repeat("0", tc.content-len("timeout "))
		if tc.newline {
			input += "\n"
		}
		ref := bufio.NewScanner(strings.NewReader(input))
		ref.Buffer(make([]byte, maxLine), maxLine)
		for ref.Scan() {
		}
		if (ref.Err() == nil) != tc.ok {
			t.Fatalf("content %d newline %v: the reference scanner says %v", tc.content, tc.newline, ref.Err())
		}
		var out strings.Builder
		err := s.ServeSession(strings.NewReader(input), &out)
		if tc.ok && (err != nil || out.String() != "ok timeout=off\n") {
			t.Errorf("content %d newline %v: err %v, output %q; want the line served", tc.content, tc.newline, err, out.String())
		}
		if !tc.ok && (!errors.Is(err, bufio.ErrTooLong) || out.Len() != 0) {
			t.Errorf("content %d newline %v: err %v, output %q; want bufio.ErrTooLong", tc.content, tc.newline, err, out.String())
		}
	}
}

// cancel reaches only the session's own submissions: another session
// naming the id hears it is not pending, exactly as for an unknown id,
// and the query survives until its owner cancels it.
func TestSessionCancelIsPerSession(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueryThreads: 1, MaxInFlight: 1, MaxQueue: 64})
	var blockers []*Ticket
	for i := 0; i < 8; i++ {
		bt, err := s.QueryAsync(context.Background(), testQueries[i%len(testQueries)])
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, bt)
	}
	owner := startSession(t, s)
	owner.send(t, "submit "+testQueries[0]+"\n")
	var id uint64
	if _, err := fmt.Sscanf(owner.next(t), "ok id=%d", &id); err != nil {
		t.Fatal(err)
	}
	if out := serve(t, s, fmt.Sprintf("cancel %d\nquit\n", id)); out != fmt.Sprintf("error server: no pending query with id %d\n", id) {
		t.Errorf("a foreign session's cancel answered %q", out)
	}
	owner.send(t, fmt.Sprintf("cancel %d\n", id))
	got := map[string]bool{owner.next(t): true, owner.next(t): true}
	for _, want := range []string{fmt.Sprintf("ok id=%d canceling", id), fmt.Sprintf("result id=%d error context canceled", id)} {
		if !got[want] {
			t.Errorf("owner's cancel: missing %q among %v", want, got)
		}
	}
	for _, bt := range blockers {
		if _, err := bt.Wait(context.Background()); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}
}

// The session frame's allocation budget: per cache-hit fast execute
// line through ServeSession on an in-memory reader and writer, the
// server's submission and the kernel included. Batches of four, each
// drained with wait, are admitted without queueing, as in production.
func TestSessionExecuteAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	s := newTestServer(t, Config{Workers: 2, MaxInFlight: 4})
	const batches = 100
	script := "prepare q select count(*) from orders where o_totalprice < ?\nfast on\n" +
		strings.Repeat("execute q 0\nexecute q 0\nexecute q 0\nexecute q 0\nwait\n", batches)
	var out bytes.Buffer
	run := func() {
		out.Reset()
		if err := s.ServeSession(strings.NewReader(script), &out); err != nil {
			t.Fatal(err)
		}
	}
	run() // prime the plan cache and the fast plan
	if got := strings.Count(out.String(), " ok engine="); got != 4*batches {
		t.Fatalf("want %d results, got %d:\n%s", 4*batches, got, out.String())
	}
	const ceiling = 25 // 50 before the append encoder, the span blocks and the inline lifecycle
	if got := testing.AllocsPerRun(5, run) / (4 * batches); got > ceiling {
		t.Errorf("%.1f allocations per cache-hit execute line, ceiling %d", got, ceiling)
	} else {
		t.Logf("%.1f allocations per execute line (ceiling %d)", got, ceiling)
	}
}
