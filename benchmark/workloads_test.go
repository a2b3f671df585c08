package main

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// The tests share one small database (SF 0.01, default machine — what
// `OLAPSIM_SF=0.01 olapserve` serves) and the engines' agreed answers
// on it, which engineAnswers checks across typer, tectorwise and fast
// mode as a side effect.
var small struct {
	once  sync.Once
	db    *database
	known map[string]answer
	err   error
}

func smallOracle(t *testing.T) *dataOracle {
	t.Helper()
	small.once.Do(func() {
		small.db = openDatabase(false, 0.01)
		small.known, small.err = engineAnswers(small.db)
	})
	if small.err != nil {
		t.Fatal(small.err)
	}
	return &dataOracle{known: small.known, db: small.db}
}

// sequence is the first n command lines connection conn would send.
func sequence(t *testing.T, w *workload, seed int64, conn, n int) []byte {
	t.Helper()
	pl, err := buildPlan(w, seed, smallOracle(t))
	if err != nil {
		t.Fatal(err)
	}
	g := pl.generator(conn)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(g.next().line)
	}
	return b.Bytes()
}

func TestSeedFixesTheSequence(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, again := sequence(t, w, 7, 0, 300), sequence(t, w, 7, 0, 300)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave two different sequences", w.name)
		}
		if bytes.Equal(a, sequence(t, w, 8, 0, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
		if bytes.Equal(a, sequence(t, w, 7, 1, 300)) {
			t.Errorf("%s: connections 0 and 1 send the same sequence", w.name)
		}
	}
}

// Every seed sends the same mix: each cycle holds every slot exactly
// weight times, only the order changes.
func TestMixIsTheSameForEverySeed(t *testing.T) {
	w, _ := findWorkload("measured_profile")
	pl, err := buildPlan(w, 3, smallOracle(t))
	if err != nil {
		t.Fatal(err)
	}
	g := pl.generator(0)
	counts := map[string]int{}
	for i := 0; i < 5*len(pl.cycle); i++ {
		counts[g.next().key]++
	}
	for _, sl := range w.mix {
		if counts[sl.stmt] != 5*sl.weight {
			t.Errorf("%s sent %d times in 5 cycles, want %d", sl.stmt, counts[sl.stmt], 5*sl.weight)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	o := smallOracle(t)
	frame, _ := findWorkload("fast_frame")
	pl, err := buildPlan(frame, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	// fast on + four prepares; priming is every distinct statement and
	// tuple once: 4 literals (query and submit share them) + 8+8+8+5.
	if len(pl.setup) != 5 || len(pl.prime) != 33 {
		t.Errorf("fast_frame: %d setup lines, %d priming requests; want 5, 33", len(pl.setup), len(pl.prime))
	}
	adhoc, _ := findWorkload("adhoc_compile")
	pl, err = buildPlan(adhoc, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, vs := range pl.variants {
		for _, r := range vs {
			distinct[string(r.line)] = true
		}
	}
	if len(pl.variants) != 4 || len(distinct) < 1500 {
		t.Errorf("adhoc_compile: %d templates, %d distinct statements; want 4 and well over the 64-entry cache", len(pl.variants), len(distinct))
	}
}

// The golden file must know every statement the workloads send.
func TestGoldenCoversTheCatalog(t *testing.T) {
	known, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range catalog {
		tuples := s.args
		if tuples == nil {
			tuples = [][]int64{nil}
		}
		for _, args := range tuples {
			if _, ok := known[oracleKey(s.name, args)]; !ok {
				t.Errorf("golden.json has no answer for %s; run -update-golden", oracleKey(s.name, args))
			}
		}
	}
	if len(known) != len(smallOracle(t).known) {
		t.Errorf("golden.json has %d answers, the catalog %d", len(known), len(smallOracle(t).known))
	}
}

// The naive evaluator and the engines share nothing but the columns;
// they must agree on every seeded statement shape.
func TestNaiveEvaluatorAgreesWithEngines(t *testing.T) {
	o := smallOracle(t)
	rng := rand.New(rand.NewSource(42))
	for _, tm := range adhocTemplates {
		for i := 0; i < 25; i++ {
			text, q := tm.draw(rng, o.rows)
			want, err := o.evalRange(q)
			if err != nil {
				t.Fatal(err)
			}
			c, err := o.db.compile(text, "auto", 2)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			fast, err := c.runFast(2)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			m, err := c.runMeasured(1)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if fast != want || m.ans != want {
				t.Errorf("%s: naive %v, fast %v, measured %v", text, want, fast, m.ans)
			}
		}
	}
}
