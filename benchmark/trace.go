package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run produces the per-layer metrics. It runs the product
// in-process and records a span around each call into a layer's public
// entry point; there are no spans inside the product (that is a later
// change). Two kinds of numbers come out of it:
//
//   - request spans: every request of the seeded sequence is executed
//     once at each boundary, outside in — over loopback TCP
//     (client.roundtrip), over an in-memory stream (session.roundtrip),
//     through Server.Submit (server.submit), then the sql front end, compile and
//     bind on a plan-cache miss, and the executor — each depth on its
//     own server, so all plan caches see the sequence exactly once and
//     stay in step. A layer's self time is its span minus the spans
//     below it. Because each boundary is timed by its own execution of
//     the statement, spans of one request nest by parent id, not by
//     clock interval.
//   - layer probes: fixed calls into one layer (a kernel per fast path,
//     one probe event, one metrics scrape, ...) that do not depend on
//     the workload and run the same way in every traced run.

// simThreads is the worker count of the measured-mode layer probes.
// Simulated time depends on it, so it is a constant, not nproc: the
// sim.ms.* counts are then the same on every host.
const simThreads = 2

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    int    `json:"req"`
	Stmt   string `json:"stmt"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory; they are written out at exit. req
// and stmt identify the request the next spans belong to.
type recorder struct {
	origin time.Time
	req    int
	stmt   string
	spans  []span
}

// measure times f as a span of the current request.
func (r *recorder) measure(name, layer string, parent int, f func()) span {
	start := time.Since(r.origin)
	f()
	end := time.Since(r.origin)
	s := span{Name: name, Layer: layer, Req: r.req, Stmt: r.stmt, ID: len(r.spans) + 1, Parent: parent, Start: int64(start), End: int64(end)}
	r.spans = append(r.spans, s)
	return s
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceConfig is how one traced run is shaped.
type traceConfig struct {
	run        runConfig // the spawned olapserve of the untraced reference
	quick      bool      // the in-process database mirrors `olapserve -quick`
	sf         float64   // its scale factor otherwise
	seconds    time.Duration
	calibBytes int    // host bandwidth calibration array
	outDir     string // where the span file goes
}

// traceResult is everything one traced run measured.
type traceResult struct {
	workload string
	seed     int64
	metrics  map[string]float64 // the per-layer metrics
	shares   map[string]float64 // layer -> share of client.roundtrip
	tally
	requests  int
	clientUs  float64 // median traced client.roundtrip
	spanFile  string
	shareNote string
	wall      time.Duration
}

// tracer runs the seeded sequence at every depth.
type tracer struct {
	db      *database
	pl      *plan
	threads int
	rec     *recorder
	tcp     *session // to server a over loopback TCP
	pipe    *session // to server b over a memConn pair
	direct  *inproc  // server c, called through Submit
	// templates and bound mirror what the plan cache holds, so the leaf
	// level compiles and binds exactly when the servers did.
	templates map[string]*compiled
	bound     map[string]*compiled
	tally
	closers []func()
}

func newTracer(db *database, pl *plan, threads int) (*tracer, error) {
	t := &tracer{db: db, pl: pl, threads: threads, rec: &recorder{origin: time.Now()},
		templates: map[string]*compiled{}, bound: map[string]*compiled{}}
	var servers [3]*inproc
	for i := range servers {
		s, err := db.newServer(threads)
		if err != nil {
			t.close()
			return nil, err
		}
		servers[i] = s
		t.closers = append(t.closers, s.close)
	}
	t.direct = servers[2]

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.close()
		return nil, err
	}
	// Closers run in reverse: sessions close first, which ends the
	// serving goroutines, which are waited for before the servers close.
	var serving sync.WaitGroup
	t.closers = append(t.closers, serving.Wait)
	serving.Add(1)
	go func() {
		defer serving.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = servers[0].serve(conn, conn) // ends when the client closes
	}()
	tcp, err := dialSession(ln.Addr().String(), t.rec.origin)
	ln.Close() // one connection only; also releases Accept if the dial failed
	if err != nil {
		t.close()
		return nil, err
	}
	t.tcp = tcp
	near, far := memPipe()
	serving.Add(1)
	go func() {
		defer serving.Done()
		defer far.Close()
		_ = servers[1].serve(far, far)
	}()
	t.pipe = newSession(near, t.rec.origin)
	t.closers = append(t.closers, t.pipe.close, t.tcp.close)
	for _, s := range []*session{t.tcp, t.pipe} {
		for _, line := range pl.setup {
			if _, err := s.command(line); err != nil {
				t.close()
				return nil, err
			}
		}
	}
	return t, nil
}

func (t *tracer) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

func (t *tracer) check(r *request, got answer, err error) {
	switch {
	case err != nil:
		t.fail("%s in-process: %v", r.key, err)
	case got != r.want:
		t.fail("%s in-process answered %v, want %v", r.key, got, r.want)
	}
}

// roundtrip sends r on s and waits for its result; what goes wrong
// lands in the session's tally.
func roundtrip(s *session, r *request) {
	sent := false
	_ = s.drive(1, func() *request {
		if sent {
			return nil
		}
		sent = true
		return r
	})
}

// sessionAllocs is the heap objects one session round trip allocates
// beyond the Server.Submit inside it: the same requests go through the
// in-memory session and then through Submit, and the allocation
// counters are read once around each batch — reading them stops the
// world, so it is never done around a timed span.
func (t *tracer) sessionAllocs(gen *generator, budget time.Duration) float64 {
	reqs := make([]*request, 0, 200)
	end := time.Now().Add(budget)
	session, _ := allocsOf(func() {
		for len(reqs) < cap(reqs) && (len(reqs) < 3 || time.Now().Before(end)) {
			r := gen.next()
			reqs = append(reqs, r)
			roundtrip(t.pipe, r)
		}
	})
	submit, _ := allocsOf(func() {
		for _, r := range reqs {
			ans, _, err := t.direct.submit(r, t.pl.w.fast)
			t.check(r, ans, err)
		}
	})
	t.attempted += len(reqs)
	return (session - submit) / float64(len(reqs))
}

// request executes r once at every depth, recording one span each.
func (t *tracer) request(id int, r *request) {
	t.attempted++
	t.rec.req, t.rec.stmt = id, r.key
	root := t.rec.measure("client.roundtrip", "net", 0, func() { roundtrip(t.tcp, r) })
	sess := t.rec.measure("session.roundtrip", "session", root.ID, func() { roundtrip(t.pipe, r) })
	var cached bool
	sub := t.rec.measure("server.submit", "server", sess.ID, func() {
		var ans answer
		var err error
		ans, cached, err = t.direct.submit(r, t.pl.w.fast)
		t.check(r, ans, err)
	})

	var template string
	var args []int64
	t.rec.measure("sql.frontend", "sql", sub.ID, func() { template, args = frontend(r) })
	key := template + "\x00" + joinArgs(args, ",")
	bc := t.bound[key]
	if !cached {
		// The server compiled or bound on this request; do the same, one
		// span per step. The mirror is never trimmed (a run has at most
		// ~2048 distinct plans), so a plan the server still caches is
		// always here.
		var err error
		tc := t.templates[template]
		if tc == nil {
			t.rec.measure("sql.compile", "sql", sub.ID, func() { tc, err = t.db.compile(template, "auto", t.threads) })
			if err != nil {
				t.fail("%s compile: %v", r.key, err)
				return
			}
			t.templates[template] = tc
		}
		bc = tc
		if tc.params() > 0 {
			t.rec.measure("sql.bind", "sql", sub.ID, func() { bc, err = tc.bind(args) })
			if err != nil {
				t.fail("%s bind: %v", r.key, err)
				return
			}
		}
		if t.pl.w.fast {
			t.rec.measure("relop.fast.compile", "relop", sub.ID, func() { bc.hasFastPlan() })
		}
		t.bound[key] = bc
	}
	if bc == nil {
		t.fail("%s: server reports a cached plan this run never compiled", r.key)
		return
	}
	switch {
	case !t.pl.w.fast:
		t.rec.measure("engine.measured", "engine", sub.ID, func() {
			m, err := bc.runMeasured(t.threads)
			t.check(r, m.ans, err)
		})
	case bc.hasFastPlan():
		t.rec.measure("relop.fast.execute", "relop", sub.ID, func() { t.check(r, bc.runFastPlan(t.threads), nil) })
	default:
		t.rec.measure("engine.fastjoin", "engine", sub.ID, func() {
			ans, err := bc.runFast(t.threads)
			t.check(r, ans, err)
		})
	}
}

// memConn is one end of an in-memory byte stream that buffers writes
// the way a socket does. It is the transport-free baseline under
// client.roundtrip: net.Pipe was measured first and, being synchronous
// (every Write blocks until the peer has read it), cost more per round
// trip than loopback TCP on the dev host.
type memConn struct {
	in       <-chan []byte
	out      chan<- []byte
	buf      []byte
	deadline time.Time
	timer    *time.Timer
}

// memPipe returns the two ends. The buffer of 64 writes is far beyond
// what a depth-1 session ever has outstanding, so Write never blocks.
func memPipe() (*memConn, *memConn) {
	a, b := make(chan []byte, 64), make(chan []byte, 64)
	return &memConn{in: a, out: b}, &memConn{in: b, out: a}
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		var expired <-chan time.Time
		if !c.deadline.IsZero() {
			if c.timer == nil {
				c.timer = time.NewTimer(time.Until(c.deadline))
			} else {
				c.timer.Reset(time.Until(c.deadline))
			}
			defer c.timer.Stop()
			expired = c.timer.C
		}
		select {
		case b, ok := <-c.in:
			if !ok {
				return 0, io.EOF
			}
			c.buf = b
		case <-expired:
			return 0, os.ErrDeadlineExceeded
		}
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	c.out <- append([]byte(nil), p...) // the caller reuses p
	return len(p), nil
}

// Close ends the stream for the peer's reads; each end closes once.
func (c *memConn) Close() error { close(c.out); return nil }

func (c *memConn) SetReadDeadline(t time.Time) error { c.deadline = t; return nil }

// sharePrediction is the design's claim (ISSUE 11) about where a
// workload's round-trip time goes, by span name; the traced run checks
// it and says so, it does not assume it.
var sharePrediction = map[string]struct {
	spans []string
	min   float64 // the spans' share is at least min (0 = no floor) ...
	max   float64 // ... and at most max (0 = no ceiling)
}{
	"fast_scan":        {spans: []string{"relop.fast.execute"}, min: 0.85},
	"fast_frame":       {spans: []string{"relop.fast.execute", "engine.fastjoin"}, max: 0.10},
	"adhoc_compile":    {spans: []string{"sql.frontend", "sql.compile", "sql.bind"}, min: 0.50},
	"fast_join":        {spans: []string{"engine.fastjoin"}, min: 0.85},
	"measured_profile": {spans: []string{"engine.measured"}, min: 0.90},
}

// requestMetrics turns the request spans into self times and shares.
// A share is time-weighted: a span's total over all requests divided
// by the total of client.roundtrip; the three outer layers contribute
// their self time.
func (t *tracer) requestMetrics(res *traceResult) {
	type perReq struct{ client, session, submit, frontend, leaves float64 }
	reqs := map[int]*perReq{}
	res.shares = map[string]float64{}
	for _, s := range t.rec.spans {
		q := reqs[s.Req]
		if q == nil {
			q = &perReq{}
			reqs[s.Req] = q
		}
		switch s.Name {
		case "client.roundtrip":
			q.client = s.dur()
		case "session.roundtrip":
			q.session = s.dur()
		case "server.submit":
			q.submit = s.dur()
		default:
			if s.Name == "sql.frontend" {
				q.frontend = s.dur()
			}
			q.leaves += s.dur()
			res.shares[s.Name] += s.dur()
		}
	}
	var client, net, sess, frame, fe []float64
	var total float64
	for _, q := range reqs {
		client = append(client, q.client)
		net = append(net, q.client-q.session)
		sess = append(sess, q.session-q.submit)
		frame = append(frame, q.submit-q.leaves)
		fe = append(fe, q.frontend)
		total += q.client
		res.shares["net (self)"] += q.client - q.session
		res.shares["session (self)"] += q.session - q.submit
		res.shares["server (self)"] += q.submit - q.leaves
	}
	for name := range res.shares {
		res.shares[name] /= total
	}
	res.requests = len(reqs)
	res.clientUs = median(client) / 1e3
	res.metrics["net.self_us"] = median(net) / 1e3
	res.metrics["session.self_us"] = median(sess) / 1e3
	res.metrics["server.frame_self_us"] = median(frame) / 1e3
	res.metrics["sql.frontend_us"] = median(fe) / 1e3

	pred := sharePrediction[t.pl.w.name]
	var got float64
	for _, name := range pred.spans {
		got += res.shares[name]
	}
	verdict := "holds"
	if (pred.min > 0 && got < pred.min) || (pred.max > 0 && got > pred.max) {
		verdict = "MISSED"
	}
	bound := fmt.Sprintf(">= %.2f", pred.min)
	if pred.max > 0 {
		bound = fmt.Sprintf("<= %.2f", pred.max)
	}
	res.shareNote = fmt.Sprintf("predicted share of %s: %s, measured %.3f: prediction %s",
		strings.Join(pred.spans, " + "), bound, got, verdict)
}

// timeMedian is the median duration of reps calls of f, in ns.
func timeMedian(reps int, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		start := time.Now()
		f()
		d[i] = float64(time.Since(start))
	}
	return median(d)
}

// loopNs is the median over reps batches of the time per call of op,
// n calls to a batch, in ns.
func loopNs(reps, n int, op func(i int)) float64 {
	return timeMedian(reps, func() {
		for i := 0; i < n; i++ {
			op(i)
		}
	}) / float64(n)
}

// allocsOf is the heap objects and bytes f allocated.
func allocsOf(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// hostBandwidth sums a bytes-sized []int64 with one goroutine and with
// threads goroutines and returns the best GB/s of three passes each:
// the sequential-read ceiling the kernel bandwidths are stated against.
func hostBandwidth(bytes, threads int) (gbps1, gbpsN float64) {
	a := make([]int64, bytes/8)
	for i := range a {
		a[i] = int64(i)
	}
	pass := func(parts int) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			sums := make([]int64, parts)
			var wg sync.WaitGroup
			start := time.Now()
			for p := 0; p < parts; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					var s int64
					for _, v := range a[p*len(a)/parts : (p+1)*len(a)/parts] {
						s += v
					}
					sums[p] = s
				}(p)
			}
			wg.Wait()
			gbps := float64(len(a)*8) / float64(time.Since(start))
			for _, s := range sums {
				calibSink += s
			}
			if gbps > best {
				best = gbps
			}
		}
		return best
	}
	return pass(1), pass(threads)
}

// calibSink receives the calibration sums so the loops are not dead code.
var calibSink int64

// fastShapes are the fast_scan statements with the bytes of column
// data one row of each reads (int64 columns 8, flag columns 1).
var fastShapes = []struct {
	stmt  string
	width float64
}{
	{"q6", 32}, {"q1_fused", 26}, {"q1_expr", 26}, {"minmax", 16}, {"hashgrp_topk", 16},
}

// layerProbes measures the fixed calls into each layer.
func layerProbes(db *database, threads int, m map[string]float64) error {
	rows := float64(db.rows("lineitem"))
	compile := func(text string, th int) (*compiled, error) { return db.compile(text, "auto", th) }
	named := func(name string, th int) (*compiled, error) { return compile(findStatement(name).sql, th) }

	// sql: parse, full compile and bind of a lineitem and of an
	// orders-sized statement.
	m["sql.parse_us"] = loopNs(5, 50, func(int) { _ = parseSQL(sqlQ6) }) / 1e3
	for _, c := range []struct{ suffix, text string }{{"lineitem", sqlQ6}, {"small", findStatement("ord_q6").sql}} {
		var err error
		m["sql.compile_us."+c.suffix] = timeMedian(7, func() { _, err = compile(c.text, threads) }) / 1e3
		if err != nil {
			return err
		}
		template, args := frontend(&request{sql: c.text})
		tc, err := compile(template, threads)
		if err != nil {
			return err
		}
		m["sql.bind_us."+c.suffix] = timeMedian(7, func() { _, err = tc.bind(args) }) / 1e3
		if err != nil {
			return err
		}
	}
	m["sql.compile_allocs"], _ = allocsOf(func() { _, _ = compile(sqlQ6, threads) })

	// relop: CompileFast, then one kernel per fast path on one thread.
	var fresh []*compiled
	for i := 0; i < 5; i++ {
		c, err := named("q6", threads)
		if err != nil {
			return err
		}
		fresh = append(fresh, c)
	}
	next := 0
	m["relop.fast_compile_us"] = timeMedian(len(fresh), func() { fresh[next].hasFastPlan(); next++ }) / 1e3
	for _, sh := range fastShapes {
		c, err := named(sh.stmt, threads)
		if err != nil {
			return err
		}
		if !c.hasFastPlan() {
			return fmt.Errorf("%s has no fast plan", sh.stmt)
		}
		c.runFastPlan(1) // warm the pooled worker
		ns := timeMedian(5, func() { c.runFastPlan(1) })
		m["relop.fast."+sh.stmt+".ns_per_row"] = ns / rows
		m["relop.fast."+sh.stmt+".gbps"] = rows * sh.width / ns
		if sh.stmt == "q6" {
			c.runFastPlan(threads)
			m["relop.fast.q6.scale_x"] = ns / timeMedian(5, func() { c.runFastPlan(threads) })
			m["relop.fast.q6.bw_frac"] = m["relop.fast.q6.gbps"] / m["host.seq_read_gbps_1t"]
		}
	}

	// engines in fast mode (nil probe) and in measured mode.
	for _, name := range []string{"join2", "q3"} {
		c, err := named(name, threads)
		if err != nil {
			return err
		}
		m["engine.fastjoin.ns_per_row."+name] = timeMedian(3, func() { _, err = c.runFast(threads) }) / rows
		if err != nil {
			return err
		}
		if name == "join2" {
			m["engine.fastjoin.allocs_per_query"], _ = allocsOf(func() { _, _ = c.runFast(threads) })
		}
	}
	for _, name := range []string{"q6", "q1_fused", "join2"} {
		c, err := named(name, simThreads)
		if err != nil {
			return err
		}
		var run measuredRun
		var ns float64
		_, bytes := allocsOf(func() {
			ns = timeMedian(1, func() { run, err = c.runMeasured(simThreads) })
		})
		if err != nil {
			return err
		}
		m["sim.ms."+name] = run.simMs
		if name != "q1_fused" {
			m["engine.measured.host_ns_per_row."+name] = ns / rows
		}
		if name == "q6" {
			m["engine.measured.bytes_per_query"] = bytes
			m["sim.events_per_host_s"] = float64(run.memEvents) / (ns / 1e9)
		}
	}

	// probe, mem, obs: one event each, in a loop.
	for _, op := range db.microOps() {
		m[op.metric] = loopNs(5, op.calls, op.op) / op.div
		if op.metric == "probe.new_us" {
			_, m["probe.new_bytes"] = allocsOf(func() { op.op(0) })
		}
	}

	// server: a no-op plan through Submit (admission, ticket, goroutine,
	// span tree, plan-cache hit), one metrics scrape, one Stats call.
	srv, err := db.newServer(threads)
	if err != nil {
		return err
	}
	defer srv.close()
	noop := newRequest(verbQuery, findStatement("noop_never"), nil, answer{})
	if _, _, err := srv.submit(&noop, true); err != nil {
		return err
	}
	const submits = 2000
	m["server.submit_noop_us"] = timeMedian(submits, func() { _, _, _ = srv.submit(&noop, true) }) / 1e3
	objects, bytes := allocsOf(func() {
		for i := 0; i < submits; i++ {
			_, _, _ = srv.submit(&noop, true)
		}
	})
	m["server.submit_noop_allocs"] = objects / submits
	m["server.submit_noop_bytes"] = bytes / submits
	m["server.metrics_scrape_us"] = timeMedian(200, func() { _ = srv.writeMetrics(io.Discard) }) / 1e3
	m["server.stats_us"] = loopNs(5, 2000, func(int) { srv.touchStats() }) / 1e3
	return nil
}

// reference spawns the real olapserve and measures what only it can
// show: time to ready, the cost of a new connection, and the untraced
// depth-1 round trip of this workload's sequence — the denominator of
// trace.overhead_ratio.
func reference(cfg traceConfig, pl *plan, m map[string]float64) (t tally, roundtripUs float64, err error) {
	rc := cfg.run
	rc.conns = 1
	p, err := setUp(rc, pl)
	if err != nil {
		return tally{}, 0, err
	}
	defer p.close()
	m["olapserve.ready_s"] = p.sp.readyS
	connect := timeMedian(20, func() {
		s, e := dialSession(p.sp.addr, time.Now())
		if e == nil {
			_, e = s.command("stats")
			s.close()
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return tally{}, 0, err
	}
	m["olapserve.connect_us"] = connect / 1e3
	s := p.sessions[0]
	gen := pl.generator(0)
	end := time.Now().Add(cfg.seconds / 6)
	n := 0
	err = s.drive(1, func() *request {
		// At least 21 requests, so the median has ten samples beyond it.
		if n++; n > 21 && !time.Now().Before(end) {
			return nil
		}
		return gen.next()
	})
	t = p.tally
	t.add(s.tally)
	if err != nil || t.failed > 0 {
		return t, 0, err
	}
	lats := make([]float64, len(s.samples))
	for i, sm := range s.samples {
		lats[i] = float64(sm.lat)
	}
	return t, median(lats) / 1e3, nil
}

// runTrace is one traced run of a workload.
func runTrace(cfg traceConfig, w *workload, seed int64, known map[string]answer) (*traceResult, error) {
	began := time.Now()
	threads := runtime.NumCPU()
	res := &traceResult{workload: w.name, seed: seed, metrics: map[string]float64{}}
	m := res.metrics

	var db *database
	m["tpch.generate_s"] = timeMedian(1, func() { db = openDatabase(cfg.quick, cfg.sf) }) / 1e9
	pl, err := buildPlan(w, seed, &dataOracle{known: known, db: db})
	if err != nil {
		return nil, err
	}
	m["host.seq_read_gbps_1t"], m["host.seq_read_gbps_nt"] = hostBandwidth(cfg.calibBytes, threads)
	// The calibration array is garbage now; collect it here, so that
	// the collector is idle while the spawned server starts.
	runtime.GC()

	ref, untracedUs, err := reference(cfg, pl, m)
	if err != nil {
		return nil, err
	}
	if ref.failed > 0 {
		res.tally = ref
		return res, nil
	}
	if err := layerProbes(db, threads, m); err != nil {
		return nil, err
	}

	t, err := newTracer(db, pl, threads)
	if err != nil {
		return nil, err
	}
	defer t.close()
	for i := range pl.prime {
		t.request(0, &pl.prime[i])
	}
	t.rec.spans = t.rec.spans[:0]
	before, err := t.tcp.stats()
	if err != nil {
		return nil, err
	}
	gen := pl.generator(0)
	end := time.Now().Add(cfg.seconds - cfg.seconds/6)
	for id := 1; id <= 21 || time.Now().Before(end); id++ {
		t.request(id, gen.next())
	}
	after, err := t.tcp.stats()
	if err != nil {
		return nil, err
	}
	m["session.allocs_per_op"] = t.sessionAllocs(gen, cfg.seconds/24)
	// A request is one attempt however many depths executed it; a
	// failure at any depth fails it.
	for _, part := range []tally{ref, t.tally, t.tcp.tally, t.pipe.tally} {
		res.tally.add(part)
	}
	res.attempted = ref.attempted + t.attempted

	t.requestMetrics(res)
	cache := after.sub(before)
	kq := float64(cache.hits+cache.misses) / 1000
	m["plancache.hit_ratio"] = float64(cache.hits) / float64(cache.hits+cache.misses)
	m["plancache.evictions_per_kq"] = float64(cache.evictions) / kq
	m["plancache.dedups_per_kq"] = float64(cache.dedups) / kq
	m["trace.overhead_ratio"] = res.clientUs / untracedUs

	res.spanFile = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
	if err := t.rec.write(res.spanFile); err != nil {
		return nil, err
	}
	res.wall = time.Since(began)
	return res, nil
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
