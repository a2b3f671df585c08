// Command benchmark is the repository's benchmark (BENCHMARK.json at
// the repository root names it). It builds and spawns the real
// cmd/olapserve, drives it over loopback TCP with the line protocol
// from nproc closed-loop connections, checks every answer, and prints
// every end-to-end metric by name and unit; with -trace 1 it instead
// runs the same seeded statements in-process and times the calls into
// each layer to produce the per-layer metrics. See README.md.
//
// Run it from this directory (benchmark/run.sh does, keeping the Go
// build cache inside the checkout):
//
//	go run . -workload all -seed 1
//	go run . -workload fast_frame -seed 1 -trace 1
//	go run . -aa
//	go run . -update-golden
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run
// measures. Windows and warm-up scale from it, every workload alike.
const defaultSeconds = 12

func init() {
	// startServer asks the kernel to kill the child when the thread
	// that forked it exits (Pdeathsig); pinning main to the process's
	// first thread makes that "when the benchmark exits".
	runtime.LockOSThread()
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seeds statement order, the adhoc_compile literals and the fast_frame arguments")
		seconds      = flag.Int("seconds", defaultSeconds, "how long a run measures")
		trace        = flag.Int("trace", 0, "0: untraced end-to-end run against a spawned olapserve; 1: in-process traced run, per-layer metrics")
		aa           = flag.Bool("aa", false, "run the whole suite twice on this build and compare against the bounds in BENCHMARK.json")
		golden       = flag.Bool("update-golden", false, "rewrite golden.json after typer, tectorwise and fast mode agree")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllServers()
		os.Exit(130)
	}()
	ok, err := run(*workloadFlag, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *aa, *golden)
	stopAllServers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, trace, aa, golden bool) (bool, error) {
	if _, err := os.Stat(filepath.Join("..", "cmd", "olapserve")); err != nil {
		return false, errors.New("run from the benchmark/ directory of the repository (benchmark/run.sh does)")
	}
	if golden {
		return true, updateGolden()
	}
	known, err := loadGolden()
	if err != nil {
		return false, err
	}
	bin, err := buildServer()
	if err != nil {
		return false, err
	}
	cfg := traceConfig{
		run:        quickRunConfig(bin, seconds),
		quick:      true,
		seconds:    seconds,
		calibBytes: 256 << 20,
		outDir:     "out",
	}
	printStamp(hostStamp(cfg.run, seed))
	if aa {
		return aaRun(cfg, seed, known)
	}
	var picked []*workload
	if name == "all" {
		for i := range workloads {
			picked = append(picked, &workloads[i])
		}
	} else if w, ok := findWorkload(name); ok {
		picked = append(picked, w)
	} else {
		return false, fmt.Errorf("no workload %q", name)
	}
	began := time.Now()
	allOK := true
	for _, w := range picked {
		var line resultLine
		if trace {
			res, err := runTrace(cfg, w, seed, known)
			if err != nil {
				return false, err
			}
			printTrace(res)
			line = newResultLine(res.tally, res.metrics, perLayer)
		} else {
			res, err := runUntraced(cfg.run, w, seed, known)
			if err != nil {
				return false, err
			}
			printRun(res)
			line = newResultLine(res.tally, res.metrics, endToEnd)
		}
		allOK = allOK && line.Correct
		b, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		if len(picked) > 1 {
			fmt.Printf("total wall %.1fs\n", time.Since(began).Seconds())
		}
		fmt.Println(string(b))
	}
	return allOK, nil
}

// quickRunConfig is the load shape of every workload: `olapserve
// -quick` with nproc pool workers, nproc connections, a warm-up of a
// twelfth of the measured time and four windows.
func quickRunConfig(bin string, seconds time.Duration) runConfig {
	nproc := runtime.NumCPU()
	return runConfig{
		serverBin:  bin,
		serverArgs: []string{"-quick", "-listen", "127.0.0.1:0", "-workers", fmt.Sprint(nproc)},
		conns:      nproc,
		warmup:     seconds / 12,
		window:     seconds / measureWindows,
		setups:     3,
	}
}

// runUntraced builds the workload's plan — generating the database
// only when the workload has seeded statements to verify — and runs it.
func runUntraced(cfg runConfig, w *workload, seed int64, known map[string]answer) (*runResult, error) {
	o := &dataOracle{known: known}
	if w.adhoc {
		o.db = openDatabase(true, 0)
	}
	pl, err := buildPlan(w, seed, o)
	if err != nil {
		return nil, err
	}
	o.db = nil // the answers are in the plan; let the columns go before measuring
	runtime.GC()
	return runWorkload(cfg, pl)
}

// buildServer compiles cmd/olapserve from this checkout into out/bin.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join("out", "bin", "olapserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/olapserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/olapserve: %v\n%s", err, out)
	}
	return bin, nil
}

// stamp is the host description printed with every output.
type stamp struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	CPU        string   `json:"cpu"`
	Kernel     string   `json:"kernel"`
	ServerArgs []string `json:"server_args"`
	Seed       int64    `json:"seed"`
	Conns      int      `json:"connections"`
	WarmupS    float64  `json:"warmup_s"`
	Windows    int      `json:"windows"`
	WindowS    float64  `json:"window_s"`
	Setups     int      `json:"setups"`
}

func hostStamp(cfg runConfig, seed int64) stamp {
	st := stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", CPU: "unknown", Kernel: "unknown",
		ServerArgs: cfg.serverArgs, Seed: seed, Conns: cfg.conns,
		WarmupS: cfg.warmup.Seconds(), Windows: measureWindows, WindowS: cfg.window.Seconds(), Setups: cfg.setups,
	}
	// The driver's checkout is not a git repository; "unknown" is then
	// the honest answer.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(out) > 0 {
			st.Commit += "+dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}

func printStamp(st stamp) {
	b, _ := json.Marshal(st) // a struct of strings and numbers cannot fail to marshal
	fmt.Printf("host %s\n", b)
}

// resultLine is the last line of a run's output, in the shape the
// driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResultLine(t tally, values map[string]float64, defs []metricDef) resultLine {
	line := resultLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			line.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	return line
}

func printMetrics(values map[string]float64, defs []metricDef) {
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("  %-40s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}

func printFailures(t tally) {
	fmt.Printf("  attempted %d, failed %d\n", t.attempted, t.failed)
	if t.failed > 0 {
		fmt.Printf("  first failure: %s\n", t.firstFailure)
	}
}

func printRun(r *runResult) {
	fmt.Printf("workload %s seed %d (untraced, %.1fs wall)\n", r.workload, r.seed, r.wall.Seconds())
	printMetrics(r.metrics, endToEnd)
	printFailures(r.tally)
	if r.failed > 0 {
		return
	}
	fmt.Printf("  latency samples n=%d", r.n)
	for _, tail := range []struct {
		name string
		ms   float64
	}{{"lat_p90_ms", r.p90}, {"lat_p99_ms", r.p99}} {
		if tail.ms > 0 {
			fmt.Printf(", %s %.4g", tail.name, tail.ms)
		}
	}
	fmt.Printf(" (tail percentiles are diagnostics, not gated)")
	fmt.Printf("\n  qps per window %.5g, set-ups %.4g s, ready %.4g s\n", r.windowQPS, r.setups, r.readyS)
	if lookups := r.cache.hits + r.cache.misses; lookups > 0 {
		fmt.Printf("  plan cache: hit ratio %.3f, %d evictions, %d dedups over %d lookups\n",
			float64(r.cache.hits)/float64(lookups), r.cache.evictions, r.cache.dedups, lookups)
	}
}

func printTrace(r *traceResult) {
	fmt.Printf("workload %s seed %d (traced, %d requests, %.1fs wall)\n", r.workload, r.seed, r.requests, r.wall.Seconds())
	printMetrics(r.metrics, perLayer)
	printFailures(r.tally)
	fmt.Printf("  share of client.roundtrip:\n")
	for _, name := range sortedKeys(r.shares) {
		fmt.Printf("    %-22s %6.3f\n", name, r.shares[name])
	}
	fmt.Printf("  %s\n  spans in %s\n", r.shareNote, r.spanFile)
}
