package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root: the
// contract the driver reads, and the only place the regression bounds
// are written down.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// aaRun runs the whole suite twice on this build — every workload
// untraced, and one traced run for the exact-repeat counts — and
// prints, for every pair of end-to-end metric and workload, both
// values, how much the second is worse than the first, and the bound.
// It reports false when any pair is outside its bound, any simulated
// time moved at all, or anything failed.
func aaRun(cfg traceConfig, seed int64, known map[string]answer) (bool, error) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return false, err
	}
	began := time.Now()
	var passes [2]map[string]map[string]float64 // pass -> workload -> metric -> value
	ok := true
	for pass := range passes {
		passes[pass] = map[string]map[string]float64{}
		for i := range workloads {
			w := &workloads[i]
			res, err := runUntraced(cfg.run, w, seed, known)
			if err != nil {
				return false, err
			}
			printRun(res)
			ok = ok && res.failed == 0
			passes[pass][w.name] = res.metrics
		}
		w, _ := findWorkload("measured_profile")
		res, err := runTrace(cfg, w, seed, known)
		if err != nil {
			return false, err
		}
		ok = ok && res.failed == 0
		passes[pass]["traced"] = res.metrics
	}

	fmt.Printf("\nA/A on one build, seed %d (%.0fs wall)\n", seed, time.Since(began).Seconds())
	fmt.Printf("%-18s %-18s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		for _, e := range bf.EndToEnd {
			a, b := passes[0][w.name][e.Name], passes[1][w.name][e.Name]
			worse := relDiff(a, b)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if e.Bound == nil || worse > *e.Bound {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Printf("%-18s %-18s %12.5g %12.5g %+8.1f%% %6.0f%%%s\n", w.name, e.Name, a, b, 100*worse, 100*deref(e.Bound), verdict)
		}
	}
	for _, name := range exactRepeat {
		a, b := passes[0]["traced"][name], passes[1]["traced"][name]
		verdict := "identical"
		if a != b {
			verdict, ok = "MOVED", false
		}
		fmt.Printf("%-18s %-18s %12.9g %12.9g %s (must repeat exactly)\n", "traced", name, a, b, verdict)
	}
	return ok, nil
}

func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}
