package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeConfig runs against `OLAPSIM_SF=0.01 olapserve` (default
// machine, ~60k lineitem rows) with short windows; everything is
// written under t.TempDir().
func smokeConfig(t *testing.T) traceConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns olapserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "olapserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/olapserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building olapserve: %v\n%s", err, out)
	}
	t.Cleanup(stopAllServers)
	nproc := runtime.NumCPU()
	return traceConfig{
		run: runConfig{
			serverBin:  bin,
			serverArgs: []string{"-listen", "127.0.0.1:0", "-workers", fmt.Sprint(nproc)},
			serverEnv:  []string{"OLAPSIM_SF=0.01"},
			conns:      nproc,
			warmup:     50 * time.Millisecond,
			window:     200 * time.Millisecond,
			setups:     2,
		},
		sf:         0.01,
		seconds:    600 * time.Millisecond,
		calibBytes: 8 << 20,
		outDir:     dir,
	}
}

// One untraced run of every workload: answers verified, every
// end-to-end metric reported and positive.
func TestSmokeAllWorkloads(t *testing.T) {
	cfg := smokeConfig(t)
	o := smallOracle(t)
	for i := range workloads {
		w := &workloads[i]
		pl, err := buildPlan(w, 5, o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runWorkload(cfg.run, pl)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted < res.n {
			t.Errorf("%s: attempted %d, failed %d (%s)", w.name, res.attempted, res.failed, res.firstFailure)
		}
		line := newResultLine(res.tally, res.metrics, endToEnd)
		if !line.Correct || len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line %+v", w.name, line)
		}
		for name, v := range line.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, name, v.Value)
			}
		}
		if len(res.setups) != cfg.run.setups {
			t.Errorf("%s: %d set-ups timed, want %d", w.name, len(res.setups), cfg.run.setups)
		}
		// adhoc_compile is the only workload that should miss the plan cache.
		hit := float64(res.cache.hits) / float64(res.cache.hits+res.cache.misses)
		if w.adhoc != (hit < 0.5) {
			t.Errorf("%s: plan-cache hit ratio %.2f", w.name, hit)
		}
	}
	if len(live.procs) != 0 {
		t.Errorf("%d servers still running", len(live.procs))
	}
}

// One traced run: every per-layer metric reported, spans written, the
// simulated times repeat exactly.
func TestSmokeTrace(t *testing.T) {
	cfg := smokeConfig(t)
	o := smallOracle(t)
	w, _ := findWorkload("fast_frame")
	var sim [2]map[string]float64
	for pass := range sim {
		res, err := runTrace(cfg, w, 5, o.known)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("failed %d: %s", res.failed, res.firstFailure)
		}
		for _, d := range perLayer {
			if _, ok := res.metrics[d.name]; !ok {
				t.Errorf("per-layer metric %s was not measured", d.name)
			}
		}
		if len(res.metrics) != len(perLayer) {
			t.Errorf("%d metrics measured, %d defined", len(res.metrics), len(perLayer))
		}
		sim[pass] = res.metrics

		f, err := os.Open(res.spanFile)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		byID := map[int]span{}
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("span line %q: %v", sc.Text(), err)
			}
			byID[s.ID] = s
		}
		f.Close()
		if len(byID) < 4*res.requests {
			t.Errorf("%d spans for %d requests", len(byID), res.requests)
		}
		for _, s := range byID {
			if s.End < s.Start || s.Name == "" || s.Layer == "" || s.Stmt == "" {
				t.Fatalf("bad span %+v", s)
			}
			if s.Parent != 0 && byID[s.Parent].Req != s.Req {
				t.Fatalf("span %+v has a parent in another request", s)
			}
		}
	}
	for _, name := range exactRepeat {
		if sim[0][name] != sim[1][name] || sim[0][name] == 0 {
			t.Errorf("%s = %v then %v, must repeat exactly", name, sim[0][name], sim[1][name])
		}
	}
}
