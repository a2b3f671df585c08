// Command olapserve is the concurrent query server: many in-flight
// SQL statements share one budget of scan slots, identical
// statements share one LRU-cached plan, and admission control bounds
// the executing and waiting query counts. It speaks a line-oriented
// protocol over stdin (the default) or TCP (-listen), one session per
// connection, all sessions sharing the service:
//
//	submit <sql>    accept; "ok id=N" now, "result id=N ..." when done
//	query <sql>     synchronous submit: block and print the result
//	prepare <name> <sql>
//	                register a parameterized statement (`?`
//	                placeholders) under a session-local name
//	execute <name> [args...]
//	                submit the prepared statement with one integer
//	                argument per placeholder (dates as days since
//	                the TPC-H epoch, 1992-01-01); asynchronous like
//	                submit
//	fast on|off     toggle profile-free fast mode for this session's
//	                later submissions (bit-identical results, no
//	                simulated profile; result lines carry fast=true)
//	timeout <ms>    bound this session's later submissions to a
//	                millisecond deadline (0 = none, "default" restores
//	                the server default)
//	cancel <id>     cancel a pending submission
//	stats           print the service counters (plan-cache hit rate,
//	                in-flight/queued/rejected, scan-slot shape)
//	metrics         print the Prometheus text exposition
//	wait            block until this session's submissions finish
//	quit            wait, then exit (EOF does the same)
//
// Literal statements are auto-parameterized before the plan cache is
// consulted: the template plus its literals is the cache key, so the
// query, submit and execute forms of one statement share one plan, and
// every distinct literal tuple compiles — from the text as sent, whose
// positions its error lines cite — once.
//
// With -metrics an HTTP listener additionally serves GET /metrics
// (the same Prometheus exposition) and the standard /debug/pprof
// handlers.
//
// SIGTERM and SIGINT shut the server down gracefully: admission stops,
// in-flight queries get up to -drain to finish (then are canceled at
// their next morsel boundary), and the final counters and metrics are
// flushed to stderr before exit.
//
// Usage:
//
//	olapserve -quick
//	olapserve -quick -workers 8 -query-threads 2 -inflight 16
//	olapserve -quick -listen 127.0.0.1:7433 -metrics 127.0.0.1:7434
//	printf 'query select count(*) from orders\nquit\n' | olapserve -quick
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"olapmicro/internal/harness"
	"olapmicro/internal/server"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "use the miniaturized test configuration (1/8 caches, SF 0.25)")
		workers  = flag.Int("workers", 4, "scan slots: engine morsels executing at once, over all queries")
		qthreads = flag.Int("query-threads", 0, "worker goroutines per query (default and maximum: -workers)")
		inflight = flag.Int("inflight", 0, "max queries executing at once (default: 2 x workers)")
		queue    = flag.Int("queue", 0, "max queries waiting for admission (default: 4 x inflight)")
		cache    = flag.Int("cache", 64, "plan-cache capacity in entries")
		engine   = flag.String("engine", "auto", "default execution engine: auto, typer or tectorwise")
		listen   = flag.String("listen", "", "serve TCP on this address instead of stdin (e.g. 127.0.0.1:7433)")
		metrics  = flag.String("metrics", "", "serve HTTP /metrics and /debug/pprof on this address (e.g. 127.0.0.1:7434)")
		drain    = flag.Duration("drain", 10*time.Second, "on SIGTERM/SIGINT, how long in-flight queries may finish before being canceled")
		qtimeout = flag.Duration("query-timeout", 0, "default per-query deadline (0 = none; sessions override with the timeout verb)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "error: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	fmt.Fprintf(os.Stderr, "machine: %s | SF %.3g | generating database...\n", cfg.Machine.Name, cfg.SF)
	start := time.Now()
	h := harness.New(cfg)
	fmt.Fprintf(os.Stderr, "database ready in %v (%d lineitem rows)\n",
		time.Since(start).Round(time.Millisecond), h.Data.Lineitem.Rows())

	srv, err := server.New(server.Config{
		Data: h.Data, Machine: h.Cfg.Machine,
		Workers: *workers, QueryThreads: *qthreads,
		MaxInFlight: *inflight, MaxQueue: *queue,
		PlanCache: *cache, Engine: *engine,
		DefaultTimeout: *qtimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(2)
	}
	defer srv.Close()
	sc := srv.Config()
	fmt.Fprintf(os.Stderr, "serving: %d scan slots, %d threads/query, %d in-flight + %d queued, plan cache %d\n",
		sc.Workers, sc.QueryThreads, sc.MaxInFlight, sc.MaxQueue, sc.PlanCache)

	if *metrics != "" {
		// The pprof import registered its handlers on the default mux;
		// add /metrics beside them and serve both from one listener.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = srv.WriteMetrics(w)
		})
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof on /debug/pprof)\n", mln.Addr())
		go func() {
			if err := http.Serve(mln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "error: metrics server: %v\n", err)
			}
		}()
	}

	// SIGTERM/SIGINT trigger the bounded drain: stop admitting, let
	// in-flight queries finish within -drain (cancel the stragglers at
	// their next morsel boundary), then flush the final counters and
	// metrics to stderr so the last scrape interval is never lost.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdown := func() {
		fmt.Fprintf(os.Stderr, "shutdown: draining in-flight queries (up to %v)...\n", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "shutdown: drain deadline reached, canceled remaining queries\n")
		} else {
			fmt.Fprintf(os.Stderr, "shutdown: drained cleanly\n")
		}
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "shutdown: final stats submitted=%d completed=%d failed=%d canceled=%d rejected=%d inflight=%d queued=%d panics=%d deadlines=%d breaker-opens=%d\n",
			st.Submitted, st.Completed, st.Failed, st.Canceled, st.Rejected,
			st.InFlight, st.Queued, st.PanicsRecovered, st.DeadlineExceeded, st.BreakerOpens)
		fmt.Fprintf(os.Stderr, "shutdown: final metrics\n")
		_ = srv.WriteMetrics(os.Stderr)
	}

	if *listen == "" {
		done := make(chan error, 1)
		go func() { done <- srv.ServeSession(os.Stdin, os.Stdout) }()
		select {
		case err := <-done:
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: reading input: %v\n", err)
				os.Exit(1)
			}
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "received %v\n", s)
			shutdown()
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "listening on %s\n", ln.Addr())
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "received %v\n", s)
		ln.Close() // unblocks Accept; acceptLoop returns and main runs the drain
	}()
	acceptLoop(ln, func(conn net.Conn) {
		defer conn.Close()
		fmt.Fprintf(os.Stderr, "session from %s\n", conn.RemoteAddr())
		if err := srv.ServeSession(conn, conn); err != nil {
			fmt.Fprintf(os.Stderr, "session %s: %v\n", conn.RemoteAddr(), err)
		}
	})
	shutdown()
}

// acceptLoop serves every connection ln yields on its own goroutine
// until the listener is closed. Any other Accept error (EMFILE,
// ECONNABORTED, ...) is transient — exiting on it would kill every live
// session for one exhausted descriptor table — so it is logged and
// retried after a backoff: 5 ms doubling to 1 s, reset by the next
// accepted connection.
func acceptLoop(ln net.Listener, serve func(net.Conn)) {
	const minBackoff, maxBackoff = 5 * time.Millisecond, time.Second
	backoff := minBackoff
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: accept: %v; retrying in %v\n", err, backoff)
			time.Sleep(backoff)
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		backoff = minBackoff
		go serve(conn)
	}
}
