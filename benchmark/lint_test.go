package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the contract the driver reads. It must stay inside
// the driver's limits and in step with the tables the program prints
// from (metrics.go, workloads.go).
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if len(bf.Command) == 0 || len(bf.Command) > 32 {
		t.Errorf("command has %d strings", len(bf.Command))
	}
	for _, c := range bf.Command {
		if strings.HasPrefix(c, "/") || strings.Contains(c, "..") || len(c) > 200 {
			t.Errorf("command string %q leaves the checkout or is too long", c)
		}
		if strings.Contains(c, "/") {
			if !strings.HasPrefix(c, "benchmark/") {
				t.Errorf("command names %q, outside paths", c)
			} else if _, err := os.Stat(filepath.Join("..", c)); err != nil {
				t.Errorf("command names %q: %v", c, err)
			}
		}
	}
	if bf.RunSeconds != defaultSeconds || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), workloads.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(bf.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", n, len(endToEnd))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range bf.EndToEnd {
		name("end-to-end", m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d is %v, metrics.go has %v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v, want a share in (0, 0.25]", m.Name, m.Bound)
			continue
		}
		if *m.Bound > maxBound {
			maxBound = *m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be present with the largest bound (has %v, largest %v)", setupBound, maxBound)
	}

	if n := len(bf.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", n, len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name("per-layer", m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d is %v, metrics.go has %s %s %s", i, m, d.name, d.unit, d.better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if fi, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err != nil || fi.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
}

// The interaction table: every per-layer metric names a layer, and
// what it claims to move exists.
func TestInteractionTable(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for _, m := range perLayer {
		if m.layer == "" {
			t.Errorf("%s names no layer", m.name)
		}
		for _, mv := range m.moves {
			if !e2e[mv] {
				t.Errorf("%s should move %q, which is not an end-to-end metric", m.name, mv)
			}
		}
		_, isWorkload := findWorkload(m.on)
		switch {
		case len(m.moves) == 0 && m.on != "":
			t.Errorf("%s moves nothing but names workload %q", m.name, m.on)
		case len(m.moves) > 0 && m.on != "all" && !isWorkload:
			t.Errorf("%s should show on %q, which is not a workload", m.name, m.on)
		}
	}
	for _, name := range exactRepeat {
		found := false
		for _, m := range perLayer {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("exact-repeat count %s is not a per-layer metric", name)
		}
	}
	for w := range sharePrediction {
		if _, ok := findWorkload(w); !ok {
			t.Errorf("share prediction for %q, which is not a workload", w)
		}
	}
	if len(sharePrediction) != len(workloads) {
		t.Errorf("%d share predictions for %d workloads", len(sharePrediction), len(workloads))
	}
}
