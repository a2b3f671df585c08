package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// readTimeout bounds every read from a server: a hang is a counted
// failure, never a stuck benchmark.
const readTimeout = 30 * time.Second

// serverProc is one spawned olapserve.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	readyS float64 // spawn -> "listening on" line
	logs   sync.WaitGroup
}

// live tracks the spawned servers so every exit path can kill them.
var live struct {
	sync.Mutex
	procs map[*serverProc]bool
}

// startServer spawns bin in its own process group and waits for the
// "listening on" stderr line. The child also gets SIGKILL when this
// process dies without running stop (Pdeathsig).
func startServer(bin string, args, env []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	sp := &serverProc{cmd: cmd}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]bool{}
	}
	live.procs[sp] = true
	live.Unlock()

	// The server keeps logging (one line per session) after it is ready,
	// so the pipe is drained until it closes; the last lines are kept
	// for the error message when it never becomes ready.
	ready := make(chan string, 1)
	var tail []string
	sp.logs.Add(1)
	go func() {
		defer sp.logs.Done()
		defer close(ready)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "listening on "); ok && !announced {
				announced = true
				ready <- addr
			}
			if !announced {
				tail = append(tail, line)
			}
		}
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			sp.stop()
			return nil, fmt.Errorf("%s exited before listening: %s", bin, strings.Join(tail, " | "))
		}
		sp.addr = addr
		sp.readyS = time.Since(start).Seconds()
		return sp, nil
	case <-time.After(readTimeout):
		sp.stop()
		return nil, fmt.Errorf("%s not listening after %v", bin, readTimeout)
	}
}

// stop kills the server's whole process group and waits for it.
func (sp *serverProc) stop() {
	live.Lock()
	known := live.procs[sp]
	delete(live.procs, sp)
	live.Unlock()
	if !known {
		return
	}
	_ = syscall.Kill(-sp.cmd.Process.Pid, syscall.SIGKILL) // ESRCH once it has exited is fine
	sp.logs.Wait()
	_ = sp.cmd.Wait() // "signal: killed" is the expected outcome
}

func stopAllServers() {
	live.Lock()
	var procs []*serverProc
	for sp := range live.procs {
		procs = append(procs, sp)
	}
	live.Unlock()
	for _, sp := range procs {
		sp.stop()
	}
}

// cpuTicks is the server's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat; 100 ticks per second on
// every Linux the Go runtime supports).
func (sp *serverProc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat line %q", b)
	}
	return ut + st, nil
}

const msPerTick = 10.0

// peakRSSMiB is VmHWM from /proc/<pid>/status.
func (sp *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// replyKind classifies one protocol line.
type replyKind int

const (
	replyOther   replyKind = iota // ok fast=..., ok prepared..., stats ..., metric | ...
	replyAck                      // ok id=N
	replyResult                   // result id=N ok ... sum= rows= check=
	replyFailed                   // result id=N error ...
	replyError                    // error ...: the command was refused
	replyExplain                  // explain id=N | ... and "result id=N explain ..."
)

type reply struct {
	kind replyKind
	id   uint64
	ans  answer
}

// The keys of a result line the client reads, as field wants them:
// built once, because parseReply runs for every reply of the load.
var keySum, keyRows, keyCheck = []byte(" sum="), []byte(" rows="), []byte(" check=")

// field returns the value after key (" name=") in a reply line, up to
// the next space.
func field(line, key []byte) ([]byte, bool) {
	i := bytes.Index(line, key)
	if i < 0 {
		return nil, false
	}
	v := line[i+len(key):]
	if j := bytes.IndexByte(v, ' '); j >= 0 {
		v = v[:j]
	}
	return v, true
}

func parseReply(line []byte) (reply, error) {
	switch {
	case bytes.HasPrefix(line, []byte("ok id=")):
		rest := line[len("ok id="):]
		if j := bytes.IndexByte(rest, ' '); j >= 0 { // "ok id=N canceling"
			return reply{kind: replyOther}, nil
		}
		id, err := strconv.ParseUint(string(rest), 10, 64)
		if err != nil {
			return reply{}, fmt.Errorf("bad ack %q", line)
		}
		return reply{kind: replyAck, id: id}, nil
	case bytes.HasPrefix(line, []byte("result id=")):
		rest := line[len("result id="):]
		j := bytes.IndexByte(rest, ' ')
		if j < 0 {
			return reply{}, fmt.Errorf("bad result line %q", line)
		}
		id, err := strconv.ParseUint(string(rest[:j]), 10, 64)
		if err != nil {
			return reply{}, fmt.Errorf("bad result id in %q", line)
		}
		rest = rest[j+1:]
		switch {
		case bytes.HasPrefix(rest, []byte("ok ")):
			sum, ok1 := field(rest, keySum)
			rows, ok2 := field(rest, keyRows)
			check, ok3 := field(rest, keyCheck)
			if !ok1 || !ok2 || !ok3 {
				return reply{}, fmt.Errorf("result line without sum/rows/check: %q", line)
			}
			r := reply{kind: replyResult, id: id}
			var e1, e2, e3 error
			r.ans.Sum, e1 = strconv.ParseInt(string(sum), 10, 64)
			r.ans.Rows, e2 = strconv.ParseInt(string(rows), 10, 64)
			e3 = r.ans.Check.UnmarshalText(check)
			if err := errors.Join(e1, e2, e3); err != nil {
				return reply{}, fmt.Errorf("result line %q: %w", line, err)
			}
			return r, nil
		case bytes.HasPrefix(rest, []byte("explain ")):
			return reply{kind: replyExplain, id: id}, nil
		default:
			return reply{kind: replyFailed, id: id}, nil
		}
	case bytes.HasPrefix(line, []byte("explain id=")):
		return reply{kind: replyExplain}, nil
	case bytes.HasPrefix(line, []byte("error")):
		return reply{kind: replyError}, nil
	}
	return reply{kind: replyOther}, nil
}

// sample is one completed request: when it completed and how long it
// took, both in nanoseconds (done is relative to the run's origin).
type sample struct{ done, lat int64 }

// tally counts what one session sent and what went wrong.
type tally struct {
	attempted, failed int
	firstFailure      string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// transport is what a session needs of its connection: a net.Conn, or
// the traced run's in-memory stream.
type transport interface {
	io.ReadWriteCloser
	SetReadDeadline(time.Time) error
}

type sent struct {
	req *request
	at  time.Time
}

// session is the client end of one connection. One goroutine owns it:
// it writes command lines and reads reply lines, matching them by the
// protocol's ordering rules — the session's command loop answers
// commands in order ("ok id=N" or "error ..." for an asynchronous
// verb, the result line itself for a synchronous query), and the
// results of acknowledged submissions arrive whenever they finish.
type session struct {
	conn    transport
	br      *bufio.Reader
	queue   []sent          // sent, not yet answered by the command loop
	acked   map[uint64]sent // acknowledged, result still to come
	origin  time.Time
	samples []sample
	tally
}

func newSession(conn transport, origin time.Time) *session {
	return &session{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), acked: map[uint64]sent{}, origin: origin}
}

func dialSession(addr string, origin time.Time) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, readTimeout)
	if err != nil {
		return nil, err
	}
	return newSession(conn, origin), nil
}

func (s *session) outstanding() int { return len(s.queue) + len(s.acked) }

func (s *session) readLine() ([]byte, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
		return nil, err
	}
	line, err := s.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// command sends one session-control line (fast on, prepare, stats)
// and returns its single reply line. Nothing may be outstanding.
func (s *session) command(line string) (string, error) {
	if _, err := s.conn.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	b, err := s.readLine()
	if err != nil {
		return "", fmt.Errorf("%q: %w", line, err)
	}
	if bytes.HasPrefix(b, []byte("error")) {
		return "", fmt.Errorf("%q: server said %q", line, b)
	}
	return string(b), nil
}

func (s *session) send(r *request) error {
	s.attempted++
	at := time.Now()
	if _, err := s.conn.Write(r.line); err != nil {
		return err
	}
	s.queue = append(s.queue, sent{r, at})
	return nil
}

func (s *session) headIs(sync bool) bool { return len(s.queue) > 0 && s.queue[0].req.sync == sync }

func (s *session) popQueue() (sent, bool) {
	if len(s.queue) == 0 {
		return sent{}, false
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	return p, true
}

// handle consumes one reply line. A protocol violation is an error;
// a refused, failed or wrong statement is a counted failure.
func (s *session) handle(line []byte) error {
	rep, err := parseReply(line)
	if err != nil {
		return err
	}
	// The head of the queue is checked before it is popped, so a
	// violation leaves the request outstanding for abandon to count.
	switch rep.kind {
	case replyAck:
		if !s.headIs(false) {
			return fmt.Errorf("unexpected %q", line)
		}
		p, _ := s.popQueue()
		s.acked[rep.id] = p
	case replyError:
		p, ok := s.popQueue()
		if !ok {
			return fmt.Errorf("unexpected %q", line)
		}
		s.fail("%s refused: %s", p.req.key, line)
	case replyResult, replyFailed:
		p, ok := s.acked[rep.id]
		if ok {
			delete(s.acked, rep.id)
		} else if s.headIs(true) {
			p, _ = s.popQueue()
		} else {
			return fmt.Errorf("result for nothing outstanding: %q", line)
		}
		now := time.Now()
		switch {
		case rep.kind == replyFailed:
			s.fail("%s failed: %s", p.req.key, line)
		case rep.ans != p.req.want:
			s.fail("%s answered %v, want %v", p.req.key, rep.ans, p.req.want)
		default:
			s.samples = append(s.samples, sample{done: int64(now.Sub(s.origin)), lat: int64(now.Sub(p.at))})
		}
	}
	return nil
}

// drive keeps up to depth requests in flight, taking them from next
// until it returns nil, then waits for the stragglers. An I/O error or
// timeout fails everything still outstanding and ends the session.
func (s *session) drive(depth int, next func() *request) error {
	more := true
	for {
		for more && s.outstanding() < depth {
			r := next()
			if r == nil {
				more = false
				break
			}
			if err := s.send(r); err != nil {
				return s.abandon(err)
			}
		}
		if s.outstanding() == 0 {
			return nil
		}
		line, err := s.readLine()
		if err != nil {
			return s.abandon(err)
		}
		if err := s.handle(line); err != nil {
			return s.abandon(err)
		}
	}
}

func (s *session) abandon(err error) error {
	for n := s.outstanding(); n > 0; n-- {
		s.fail("connection lost: %v", err)
	}
	s.queue, s.acked = nil, map[uint64]sent{}
	return err
}

// each sends the requests once, in order, at depth 1.
func (s *session) each(reqs []request) error {
	i := 0
	return s.drive(1, func() *request {
		if i == len(reqs) {
			return nil
		}
		i++
		return &reqs[i-1]
	})
}

func (s *session) close() { _ = s.conn.Close() }

// planStats is the plan-cache part of a "stats" reply line.
type planStats struct {
	completed, hits, misses, evictions, dedups int64
}

func parseStats(line string) (planStats, error) {
	var ps planStats
	for key, dst := range map[string]*int64{"completed": &ps.completed, "plan-hits": &ps.hits,
		"plan-misses": &ps.misses, "plan-evictions": &ps.evictions, "plan-dedups": &ps.dedups} {
		v, ok := field([]byte(line), []byte(" "+key+"="))
		if !ok {
			return ps, fmt.Errorf("stats line without %s: %q", key, line)
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return ps, fmt.Errorf("stats line %q: %w", line, err)
		}
		*dst = n
	}
	return ps, nil
}

func (a planStats) sub(b planStats) planStats {
	return planStats{a.completed - b.completed, a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.dedups - b.dedups}
}

func (s *session) stats() (planStats, error) {
	line, err := s.command("stats")
	if err != nil {
		return planStats{}, err
	}
	return parseStats(line)
}
