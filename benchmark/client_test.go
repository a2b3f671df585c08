package main

import (
	"strings"
	"testing"
	"time"
)

func okLine(id int, a answer) string {
	return "result id=" + joinArgs([]int64{int64(id)}, "") + " ok engine=Typer " + a.String() +
		" time=0.00ms threads=2 morsels=0 cached=true queued=5µs wall=80µs fast=true"
}

// scripted returns a session whose peer has already written lines and
// hung up; the in-memory stream buffers them, so no server goroutine
// is needed.
func scripted(t *testing.T, lines ...string) *session {
	t.Helper()
	near, far := memPipe()
	for _, l := range lines {
		if _, err := far.Write([]byte(l + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	far.Close()
	return newSession(near, time.Now())
}

func feed(reqs ...*request) func() *request {
	return func() *request {
		if len(reqs) == 0 {
			return nil
		}
		r := reqs[0]
		reqs = reqs[1:]
		return r
	}
}

func TestParseReply(t *testing.T) {
	want := answer{Sum: -42, Rows: 3, Check: 0xfb58c600e007b636}
	for _, c := range []struct {
		line string
		kind replyKind
		id   uint64
	}{
		{"ok id=17", replyAck, 17},
		{"ok id=17 canceling", replyOther, 0},
		{"ok fast=true", replyOther, 0},
		{"ok prepared name=p_noop", replyOther, 0},
		{okLine(9, want), replyResult, 9},
		{"result id=4 error context deadline exceeded", replyFailed, 4},
		{"result id=5 explain engine=Typer cached=false", replyExplain, 5},
		{"explain id=5 | plan:", replyExplain, 0},
		{"error server: overloaded: in-flight and queued budgets are full", replyError, 0},
		{"stats inflight=0 queued=0", replyOther, 0},
	} {
		got, err := parseReply([]byte(c.line))
		if err != nil || got.kind != c.kind || got.id != c.id {
			t.Errorf("parseReply(%q) = %+v, %v; want kind %v id %d", c.line, got, err, c.kind, c.id)
		}
		if c.kind == replyResult && got.ans != want {
			t.Errorf("parseReply(%q) answer = %v, want %v", c.line, got.ans, want)
		}
	}
	for _, bad := range []string{"ok id=x", "result id=", "result id=3 ok engine=Typer sum=1", "result id=3 ok sum=a rows=1 check=00"} {
		if _, err := parseReply([]byte(bad)); err == nil {
			t.Errorf("parseReply(%q) succeeded", bad)
		}
	}
}

// Four requests in flight on one connection: the command loop answers
// in order, acknowledged submissions finish whenever they like, and
// explain lines are noise.
func TestSessionInterleavedReplies(t *testing.T) {
	a1, a2, a3 := answer{Sum: 1, Rows: 1}, answer{Sum: 2, Rows: 1, Check: 0xff}, answer{Sum: 3, Rows: 5}
	s := scripted(t,
		"ok id=7", // r1 accepted
		"explain id=8 | plan:",
		okLine(7, a1), // r1 finishes while the sync r2 still runs
		okLine(8, a2), // r2's result is its command-loop reply
		"ok id=9",     // r3 accepted
		"error server: overloaded: in-flight and queued budgets are full", // r4 refused
		"result id=9 error query failed",                                  // r3 failed
	)
	st := statement{name: "s", sql: "select 1"}
	r1 := newRequest(verbSubmit, st, nil, a1)
	r2 := newRequest(verbQuery, st, nil, a2)
	r3 := newRequest(verbExecute, statement{name: "p", sql: "select ?"}, []int64{4}, a3)
	r4 := newRequest(verbSubmit, st, nil, a1)
	if err := s.drive(4, feed(&r1, &r2, &r3, &r4)); err != nil {
		t.Fatal(err)
	}
	if s.attempted != 4 || s.failed != 2 || len(s.samples) != 2 {
		t.Errorf("attempted %d failed %d samples %d, want 4 2 2 (first failure: %s)", s.attempted, s.failed, len(s.samples), s.firstFailure)
	}
	if !strings.Contains(s.firstFailure, "refused") {
		t.Errorf("first failure = %q, want the refusal", s.firstFailure)
	}
	if string(r3.line) != "execute p 4\n" {
		t.Errorf("execute line = %q", r3.line)
	}
}

func TestSessionWrongAnswerCounts(t *testing.T) {
	s := scripted(t, okLine(1, answer{Sum: 5, Rows: 1}))
	r := newRequest(verbQuery, statement{name: "s", sql: "select 1"}, nil, answer{Sum: 6, Rows: 1})
	if err := s.drive(1, feed(&r)); err != nil {
		t.Fatal(err)
	}
	if s.failed != 1 || len(s.samples) != 0 || !strings.Contains(s.firstFailure, "want sum=6") {
		t.Errorf("failed %d samples %d first %q", s.failed, len(s.samples), s.firstFailure)
	}
}

// A reply that cannot belong to what is outstanding ends the session
// with an error, and what was outstanding counts as failed.
func TestSessionProtocolViolations(t *testing.T) {
	st := statement{name: "s", sql: "select 1"}
	for name, c := range map[string]struct {
		lines []string
		verb  verb
	}{
		"ack for a sync query":         {[]string{"ok id=3"}, verbQuery},
		"result never acknowledged":    {[]string{okLine(3, answer{})}, verbSubmit},
		"unparsable result line":       {[]string{"result id=x ok"}, verbQuery},
		"stream ends before the reply": {nil, verbQuery},
	} {
		s := scripted(t, c.lines...)
		r := newRequest(c.verb, st, nil, answer{})
		if err := s.drive(1, feed(&r)); err == nil {
			t.Errorf("%s: no error", name)
		} else if s.attempted != 1 || s.failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 1 1", name, s.attempted, s.failed)
		}
	}
}

// A server that never answers is a counted failure after the read
// deadline, not a hang.
func TestSessionReadDeadline(t *testing.T) {
	near, _ := memPipe()
	near.deadline = time.Now().Add(20 * time.Millisecond)
	if _, err := near.Read(make([]byte, 8)); err == nil {
		t.Fatal("read of a silent stream returned without error")
	}
}

func TestParseStats(t *testing.T) {
	line := "stats inflight=0 queued=0 submitted=24 completed=23 failed=0 canceled=1 rejected=0 fast=24 " +
		"plan-hits=12 plan-misses=11 plan-evictions=3 plan-dedups=2 plan-entries=19/64 hit-rate=0.50 workers=2 query-threads=2"
	got, err := parseStats(line)
	want := planStats{completed: 23, hits: 12, misses: 11, evictions: 3, dedups: 2}
	if err != nil || got != want {
		t.Errorf("parseStats = %+v, %v; want %+v", got, err, want)
	}
	if _, err := parseStats("stats inflight=0"); err == nil {
		t.Error("short stats line parsed")
	}
	if d := want.sub(planStats{completed: 3, hits: 2}); d.completed != 20 || d.hits != 10 || d.misses != 11 {
		t.Errorf("sub = %+v", d)
	}
}
