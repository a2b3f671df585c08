package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Statements of FuzzSession: microsecond nation and region statements,
// fixed for submit and query, parameterized for prepare and execute.
var (
	fuzzStatements = []string{
		"select count(*) from nation",
		"select count(*) from region",
		"select n_regionkey, count(*) from nation group by n_regionkey",
		"select sum(n_nationkey) from nation where n_regionkey < 3",
	}
	fuzzTemplates = []string{
		"select count(*) from nation where n_nationkey < ?",
		"select sum(r_regionkey), count(*) from region where r_regionkey >= ?",
	}
)

// fuzzSessionMaxCommands bounds a script, so its submissions all fit
// FuzzSession's admission budget: no line is an overload rejection.
const fuzzSessionMaxCommands = 48

// fuzzCommand is one command of a FuzzSession script and what its
// synchronous line must be: "ok id=N" for submit and execute, the
// result line for query, the command's ok or error line otherwise.
type fuzzCommand struct {
	line  string
	want  string // the synchronous line; a query's result line begins with it
	id    uint64 // the submission's id; 0 for commands that submit nothing
	async bool   // submit and execute: the result comes later
	text  string // the statement a submission runs ...
	args  []int64
	fast  bool // ... and its mode
}

// fuzzScript decodes ops into a script, one command per byte: the
// byte's value modulo 6 picks submit, query, prepare, execute, fast or
// wait, the quotient the statement, name, argument or mode. Ids follow
// command order, as on a fresh server no other session uses.
func fuzzScript(ops []byte) []fuzzCommand {
	if len(ops) > fuzzSessionMaxCommands {
		ops = ops[:fuzzSessionMaxCommands]
	}
	var (
		cmds     []fuzzCommand
		fast     bool
		prepared = map[string]string{}
		nextID   uint64
	)
	for _, b := range ops {
		sel := int(b / 6)
		var c fuzzCommand
		switch b % 6 {
		case 0, 1:
			nextID++
			c = fuzzCommand{id: nextID, text: fuzzStatements[sel%len(fuzzStatements)], fast: fast}
			if b%6 == 0 {
				c.line, c.async, c.want = "submit "+c.text, true, fmt.Sprintf("ok id=%d", c.id)
			} else {
				c.line, c.want = "query "+c.text, fmt.Sprintf("result id=%d ok ", c.id)
			}
		case 2:
			name, text := fmt.Sprintf("p%d", sel%2), fuzzTemplates[sel/2%len(fuzzTemplates)]
			prepared[name] = text
			c = fuzzCommand{line: "prepare " + name + " " + text, want: "ok prepared name=" + name}
		case 3:
			name, arg := fmt.Sprintf("p%d", sel%3), int64(sel/3%30-2) // p2 is never prepared
			c.line = fmt.Sprintf("execute %s %d", name, arg)
			text, ok := prepared[name]
			if !ok {
				c.want = fmt.Sprintf("error no prepared statement named %q", name)
				break
			}
			nextID++
			c.id, c.async, c.want = nextID, true, fmt.Sprintf("ok id=%d", nextID)
			c.text, c.args, c.fast = text, []int64{arg}, fast
		case 4:
			fast = sel%2 == 0
			c.line, c.want = "fast "+map[bool]string{true: "on", false: "off"}[fast], "ok fast="+strconv.FormatBool(fast)
		case 5:
			c.line, c.want = "wait", "ok drained"
		}
		cmds = append(cmds, c)
	}
	return cmds
}

// splitReader hands out its data in reads whose lengths the cuts draw,
// one byte each (1 to 64 bytes); once the cuts run out, the rest in one
// read.
type splitReader struct {
	data, cuts []byte
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if len(r.cuts) > 0 {
		n = min(n, int(r.cuts[0]%64)+1)
		r.cuts = r.cuts[1:]
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

var fuzzResultLine = regexp.MustCompile(`^result id=(\d+) ok engine=\S+ sum=(-?\d+) rows=(-?\d+) check=([0-9a-f]{16}) `)

// FuzzSession runs a fuzzed script of submit, query, prepare, execute,
// fast and wait commands through one session, its input split into
// reads at fuzzed offsets, and checks the protocol's ordering and
// answers: every synchronous line arrives in command order (a query's
// result before any output of a later command), every submit and
// execute gets exactly one result line, after its ack and before the
// next wait's "ok drained", and every answer equals the same statement
// through Server.Submit.
func FuzzSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops, cuts []byte) {
		cmds := fuzzScript(ops)
		var script strings.Builder
		for _, c := range cmds {
			script.WriteString(c.line + "\n")
		}
		s := newTestServer(t, Config{Workers: 2, MaxInFlight: fuzzSessionMaxCommands, MaxQueue: fuzzSessionMaxCommands})
		var out bytes.Buffer
		if err := s.ServeSession(&splitReader{data: []byte(script.String()), cuts: cuts}, &out); err != nil {
			t.Fatalf("session: %v", err)
		}

		byID := map[uint64]*fuzzCommand{}
		for i := range cmds {
			if cmds[i].id != 0 {
				byID[cmds[i].id] = &cmds[i]
			}
		}
		answers := map[string]string{}
		answer := func(c *fuzzCommand) string {
			key := fmt.Sprint(c.text, c.args, c.fast)
			if a, ok := answers[key]; ok {
				return a
			}
			opts := []SubmitOption{}
			if c.args != nil {
				opts = append(opts, WithArgs(c.args))
			}
			if c.fast {
				opts = append(opts, WithFast())
			}
			resp, err := s.Submit(context.Background(), c.text, opts...)
			if err != nil {
				t.Fatalf("reference %q %v: %v", c.text, c.args, err)
			}
			a := fmt.Sprintf("sum=%d rows=%d check=%016x", resp.Result.Sum, resp.Result.Rows, resp.Result.Check)
			answers[key] = a
			return a
		}

		acked, answered := map[uint64]bool{}, map[uint64]bool{}
		next := 0 // the command whose synchronous line comes next
		for line := range strings.Lines(out.String()) {
			line = strings.TrimSuffix(line, "\n")
			if m := fuzzResultLine.FindStringSubmatch(line); m != nil {
				id, _ := strconv.ParseUint(m[1], 10, 64)
				c := byID[id]
				if c == nil {
					t.Fatalf("result for unknown id %d: %q\n%s", id, line, out.String())
				}
				if got, want := fmt.Sprintf("sum=%s rows=%s check=%s", m[2], m[3], m[4]), answer(c); got != want {
					t.Fatalf("id %d (%s %v): session answered %s, Server.Submit %s", id, c.text, c.args, got, want)
				}
				if c.async {
					if !acked[id] || answered[id] {
						t.Fatalf("result of id %d before its ack or twice:\n%s", id, out.String())
					}
					answered[id] = true
					continue
				}
			}
			if next == len(cmds) {
				t.Fatalf("line %q after every command answered:\n%s", line, out.String())
			}
			c := &cmds[next]
			if line != c.want && !(strings.HasPrefix(c.want, "result ") && strings.HasPrefix(line, c.want)) {
				t.Fatalf("command %d %q: got %q, want %q:\n%s", next, c.line, line, c.want, out.String())
			}
			if c.async {
				acked[c.id] = true
			}
			if c.line == "wait" {
				for _, earlier := range cmds[:next] {
					if earlier.async && !answered[earlier.id] {
						t.Fatalf("ok drained before the result of id %d:\n%s", earlier.id, out.String())
					}
				}
			}
			next++
		}
		if next != len(cmds) {
			t.Fatalf("answered %d of %d commands:\n%s", next, len(cmds), out.String())
		}
		for id, c := range byID {
			if c.async && !answered[id] {
				t.Fatalf("no result for id %d:\n%s", id, out.String())
			}
		}
	})
}
