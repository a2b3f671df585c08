package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// runConfig is how one untraced run spawns and loads olapserve.
type runConfig struct {
	serverBin  string
	serverArgs []string
	serverEnv  []string
	// conns is the number of connections, one goroutine each — the
	// whole client load, never more.
	conns int
	// A run is prime, warm-up, then measureWindows windows.
	warmup, window time.Duration
	// setups is how many times set-up (spawn, ready, prime) is timed;
	// the first server carries the measurement, the others are stopped
	// as soon as they are primed.
	setups int
}

// measureWindows is fixed: qps and CPU per query are medians over the
// windows, and four is the fewest with a median that ignores one bad
// window on either side.
const measureWindows = 4

// runResult is everything one untraced run measured.
type runResult struct {
	workload string
	seed     int64
	metrics  map[string]float64 // the end-to-end metrics
	tally
	// Diagnostics, printed but not gated.
	n         int       // pooled latency samples
	p90, p99  float64   // 0 when the sample does not support them
	windowQPS []float64 // per window
	setups    []float64 // every timed set-up
	readyS    float64   // spawn -> listening, measurement server
	cache     planStats // plan-cache counters over warm-up and windows
	wall      time.Duration
}

// primed is a spawned server with its sessions set up and the plan's
// distinct statements answered once.
type primed struct {
	sp       *serverProc
	sessions []*session
	setupS   float64
	tally
}

func (p *primed) close() {
	for _, s := range p.sessions {
		s.close()
	}
	p.sp.stop()
}

// setUp is what setup_s times: process spawn, the "listening on" line,
// session set-up on every connection, and every distinct statement of
// the plan answered (and verified) once.
func setUp(cfg runConfig, pl *plan) (*primed, error) {
	start := time.Now()
	sp, err := startServer(cfg.serverBin, cfg.serverArgs, cfg.serverEnv)
	if err != nil {
		return nil, err
	}
	p := &primed{sp: sp}
	for i := 0; i < cfg.conns; i++ {
		s, err := dialSession(sp.addr, start)
		if err != nil {
			p.close()
			return nil, err
		}
		p.sessions = append(p.sessions, s)
		for _, line := range pl.setup {
			if _, err := s.command(line); err != nil {
				p.close()
				return nil, err
			}
		}
	}
	s0 := p.sessions[0]
	if err := s0.each(pl.prime); err != nil {
		p.close()
		return nil, fmt.Errorf("priming: %w", err)
	}
	p.setupS = time.Since(start).Seconds()
	p.tally, s0.tally = s0.tally, tally{}
	s0.samples = s0.samples[:0]
	return p, nil
}

// runWorkload is one untraced run: set up, load the server from
// cfg.conns closed-loop connections, and turn what the client saw into
// the end-to-end metrics.
func runWorkload(cfg runConfig, pl *plan) (*runResult, error) {
	began := time.Now()
	res := &runResult{workload: pl.w.name, seed: pl.seed, metrics: map[string]float64{}}
	p, err := setUp(cfg, pl)
	if err != nil {
		return nil, err
	}
	defer p.close()
	res.tally.add(p.tally)
	res.setups = append(res.setups, p.setupS)
	res.readyS = p.sp.readyS
	before, err := p.sessions[0].stats()
	if err != nil {
		return nil, err
	}

	origin := time.Now()
	edge := func(k int) time.Time { return origin.Add(cfg.warmup + time.Duration(k)*cfg.window) }
	end := edge(measureWindows)
	var wg sync.WaitGroup
	errs := make([]error, cfg.conns)
	for i, s := range p.sessions {
		s.origin = origin
		s.samples = make([]sample, 0, 1<<18)
		gen := pl.generator(i)
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = s.drive(pl.w.depth, func() *request {
				if !time.Now().Before(end) {
					return nil
				}
				return gen.next()
			})
		}(i, s)
	}
	ticks := make([]int64, measureWindows+1)
	for k := range ticks {
		time.Sleep(time.Until(edge(k)))
		if ticks[k], err = p.sp.cpuTicks(); err != nil {
			break
		}
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for i, s := range p.sessions {
		res.tally.add(s.tally)
		if errs[i] != nil && res.firstFailure == "" {
			res.firstFailure = errs[i].Error()
		}
	}
	if res.failed > 0 {
		// The server may be gone; report the failures, not a metric.
		return res, nil
	}
	after, err := p.sessions[0].stats()
	if err != nil {
		return nil, err
	}
	res.cache = after.sub(before)
	rss, err := p.sp.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	p.close()

	counts := make([]int, measureWindows)
	var lats []float64
	for _, s := range p.sessions {
		for _, sm := range s.samples {
			k := int((time.Duration(sm.done) - cfg.warmup) / cfg.window)
			if time.Duration(sm.done) < cfg.warmup || k >= measureWindows {
				continue
			}
			counts[k]++
			lats = append(lats, float64(sm.lat)/1e6)
		}
	}
	var cpu []float64
	for k, c := range counts {
		if c == 0 {
			return nil, fmt.Errorf("%s: window %d completed nothing", pl.w.name, k)
		}
		res.windowQPS = append(res.windowQPS, float64(c)/cfg.window.Seconds())
		cpu = append(cpu, float64(ticks[k+1]-ticks[k])*msPerTick/float64(c))
	}
	sort.Float64s(lats)
	res.n = len(lats)
	p50, err := percentile(lats, 50)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pl.w.name, err)
	}
	// The tail percentiles are diagnostics: they stay 0 when fewer than
	// ten samples lie beyond them.
	res.p90, _ = percentile(lats, 90)
	res.p99, _ = percentile(lats, 99)

	for len(res.setups) < cfg.setups {
		extra, err := setUp(cfg, pl)
		if err != nil {
			return nil, err
		}
		extra.close()
		res.tally.add(extra.tally)
		res.setups = append(res.setups, extra.setupS)
	}
	res.metrics["setup_s"] = median(res.setups)
	res.metrics["qps"] = median(res.windowQPS)
	res.metrics["lat_p50_ms"] = p50
	res.metrics["cpu_ms_per_query"] = median(cpu)
	res.metrics["rss_peak_mb"] = rss
	res.wall = time.Since(began)
	return res, nil
}
