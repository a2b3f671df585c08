package server

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestExplainAnalyzeUnderConcurrentLoad drives EXPLAIN ANALYZE while
// the scan slots are saturated with plain queries — the -race smoke
// for the probe-section and span paths the analysis walks while scan
// workers mutate their own probes and spans concurrently. Beyond not
// racing, the analysis must stay deterministic under load: every
// concurrent analysis of the same statement reports the bit-identical
// simulated section (everything above the host-wall timings, which
// legitimately vary).
func TestExplainAnalyzeUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueryThreads: 2, MaxInFlight: 8})
	analyzed := testQueries[3] // the join: multi-section pipeline
	const loadGoroutines, analyzeGoroutines, rounds = 4, 3, 5

	ctx := context.Background()
	serial, err := s.Submit(ctx, analyzed)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, loadGoroutines+analyzeGoroutines)
	reports := make(chan string, analyzeGoroutines*rounds)

	for g := 0; g < loadGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Submit(ctx, testQueries[(g+i)%len(testQueries)]); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < analyzeGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := s.Submit(ctx, "explain analyze "+analyzed)
				if err != nil {
					errc <- err
					return
				}
				if !resp.Result.Equal(serial.Result) {
					errc <- errResultMismatch
					return
				}
				reports <- resp.Explain
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	got := make([]string, 0, analyzeGoroutines*rounds)
	for len(got) < cap(got) {
		select {
		case r := <-reports:
			got = append(got, r)
		case err := <-errc:
			close(stop)
			<-done
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	ref := simulatedSection(t, got[0])
	for i, r := range got[1:] {
		if sec := simulatedSection(t, r); sec != ref {
			t.Errorf("analysis %d differs from analysis 0 under load:\n--- 0:\n%s\n--- %d:\n%s", i+1, ref, i+1, sec)
		}
	}
}

// simulatedSection strips the host-wall span tree off an EXPLAIN
// ANALYZE report, keeping only the deterministic simulated part.
func simulatedSection(t *testing.T, report string) string {
	t.Helper()
	i := strings.Index(report, "timings (host wall):")
	if i < 0 {
		t.Fatalf("report missing the timings section:\n%s", report)
	}
	return report[:i]
}

// errResultMismatch keeps the goroutines' error channel allocation-free.
var errResultMismatch = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string {
	return "analyzed result differs from the serial reference under concurrent load"
}
