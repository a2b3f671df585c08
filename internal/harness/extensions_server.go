package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"olapmicro/internal/multicore"
	"olapmicro/internal/server"
	"olapmicro/internal/sql"
)

// ConcurrentStreams is the stream sweep of the multi-query server
// experiments: 1..8 concurrent sequential streams of one statement.
var ConcurrentStreams = []int{1, 2, 4, 8}

// Server shape of the concurrency experiments: 4 scan slots, each
// query striding its morsels over 2 of them, so 2 streams fill the
// slots and further streams contend.
const (
	concurrentWorkers = 4
	concurrentThreads = 2
)

// ExtSQLConcurrentQ1 serves concurrent streams of SQL-planned Q1
// through the multi-query server.
func ExtSQLConcurrentQ1(h *Harness) Figure {
	return extSQLConcurrentFigure(h, "ext-sql-concurrent-q1",
		"Concurrent Q1 streams through the query server: measured vs modelled", SQLQ1Text)
}

// ExtSQLConcurrentQ6 is the same sweep for the selective-scan Q6.
func ExtSQLConcurrentQ6(h *Harness) Figure {
	return extSQLConcurrentFigure(h, "ext-sql-concurrent-q6",
		"Concurrent Q6 streams through the query server: measured vs modelled", SQLQ6Text)
}

// extSQLConcurrentFigure submits S concurrent streams of one
// statement to a fresh server per stream count (so plan-cache rates
// are per-sweep-point), checks every answer is bit-identical to the
// serial engine, and compares the stream sweep against the
// multicore.Concurrent multi-tenant throughput model. One warm
// synchronous query per server primes the plan cache, so every
// stream's queries hit it.
func extSQLConcurrentFigure(h *Harness, id, title, text string) Figure {
	f := Figure{ID: id, Title: title}
	_, serial, err := sql.Run(h.Data, h.Cfg.Machine, text, sql.Options{})
	if err != nil {
		f.Notes = append(f.Notes, fmt.Sprintf("serial reference failed: %v", err))
		return f
	}
	sys := Typer
	if serial.Engine == Tectorwise.String() {
		sys = Tectorwise
	}
	identical := true
	var hitRates []string
	for _, streams := range ConcurrentStreams {
		srv, err := server.New(server.Config{
			Data: h.Data, Machine: h.Cfg.Machine,
			Workers: concurrentWorkers, QueryThreads: concurrentThreads,
			MaxInFlight: streams + 1, MaxQueue: 2 * streams,
		})
		if err != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("x%d streams: %v", streams, err))
			continue
		}
		warm, err := srv.Submit(context.Background(), text)
		if err != nil {
			f.Notes = append(f.Notes, fmt.Sprintf("x%d streams: warm query: %v", streams, err))
			srv.Close()
			continue
		}
		if !warm.Result.Equal(serial.Result) {
			identical = false
		}
		var wg sync.WaitGroup
		responses := make([]*server.Response, streams)
		errs := make([]error, streams)
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				responses[s], errs[s] = srv.Submit(context.Background(), text)
			}(s)
		}
		wg.Wait()
		st := srv.Stats()
		srv.Close()
		for s, err := range errs {
			if err != nil {
				f.Notes = append(f.Notes, fmt.Sprintf("x%d streams: stream %d: %v", streams, s, err))
				continue
			}
			if !responses[s].Result.Equal(serial.Result) {
				identical = false
			}
		}
		first := responses[0]
		if first == nil {
			continue
		}
		s := Series{System: sys, Label: fmt.Sprintf("x%d streams", streams),
			Profile: first.Profile, Result: first.Result, Inputs: first.Parallel.Inputs}
		f.Series = append(f.Series, s)
		hitRates = append(hitRates, fmt.Sprintf("x%d %.2f", streams, st.PlanHitRate()))
	}
	if len(f.Series) == 0 {
		return f
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("%v: every concurrent answer bit-identical to serial: %v", sys, identical),
		fmt.Sprintf("plan-cache hit rate per sweep point: %s", strings.Join(hitRates, ", ")))

	// The analytical multi-tenant model over the measured single-core-
	// equivalent counters of the first sweep point.
	model := multicore.ConcurrentSweep(f.Series[0].Inputs, ConcurrentStreams,
		concurrentThreads, concurrentWorkers, multicore.Options{})
	var qps []string
	for _, r := range model {
		qps = append(qps, fmt.Sprintf("x%d %.1f q/s (%d cores, %.1f GB/s)",
			r.Streams, r.QueriesPerSecond, r.ActiveCores, r.SocketBandwidthGBs))
	}
	f.Notes = append(f.Notes, fmt.Sprintf("modelled aggregate throughput: %s", strings.Join(qps, ", ")))
	if n := len(model); n > 1 && model[n-1].QueriesPerSecond >= model[0].QueriesPerSecond {
		sat := model[n-1].QueriesPerSecond / model[0].QueriesPerSecond
		f.Notes = append(f.Notes, fmt.Sprintf(
			"modelled scaling x%d->x%d streams: %.2fx (pool of %d, %d threads/query)",
			model[0].Streams, model[n-1].Streams, sat, concurrentWorkers, concurrentThreads))
	}
	return f
}
