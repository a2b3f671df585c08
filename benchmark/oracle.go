package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// golden.json holds the answer of every fixed statement on the
// `olapserve -quick` database. It is written by -update-golden only,
// and only after typer, tectorwise and fast mode agreed in-process.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Note       string            `json:"note"`
	Lineitem   int               `json:"lineitem_rows"`
	Statements map[string]answer `json:"statements"`
}

// dataOracle answers from a generated database: fixed statements from
// a table of known answers, seeded range statements by naive
// evaluation over the columns. db may be nil when the plan has no
// seeded statements.
type dataOracle struct {
	known map[string]answer
	db    *database
}

func loadGolden() (map[string]answer, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g.Statements, nil
}

func (o *dataOracle) fixed(key string) (answer, error) {
	a, ok := o.known[key]
	if !ok {
		return answer{}, fmt.Errorf("no known answer for %q (run -update-golden)", key)
	}
	return a, nil
}

func (o *dataOracle) rows(table string) int { return o.db.rows(table) }

// evalRange is the naive row-at-a-time evaluator: it shares nothing
// with the engines but the generated columns, so an answer both agree
// on is right. An ungrouped aggregate is one row with no checksum.
func (o *dataOracle) evalRange(q rangeQuery) (answer, error) {
	cols := make([][]int64, len(q.preds))
	for i, p := range q.preds {
		c, err := o.db.column(p.col)
		if err != nil {
			return answer{}, err
		}
		cols[i] = c
	}
	var a, b []int64
	var err error
	if q.sumA != "" {
		if a, err = o.db.column(q.sumA); err != nil {
			return answer{}, err
		}
	}
	if q.sumB != "" {
		if b, err = o.db.column(q.sumB); err != nil {
			return answer{}, err
		}
	}
	// The first range is tested in the loop header: it rejects most
	// rows, and 2048 statements over 1.5M rows are evaluated per run.
	first, rest := q.preds[0], q.preds[1:]
	var sum int64
rows:
	for r, v := range cols[0] {
		if v < first.lo || v >= first.hi {
			continue
		}
		for i, p := range rest {
			if v := cols[i+1][r]; v < p.lo || v >= p.hi {
				continue rows
			}
		}
		switch {
		case a == nil:
			sum++
		case b == nil:
			sum += a[r]
		default:
			sum += a[r] * b[r] / 100
		}
	}
	return answer{Sum: sum, Rows: 1}, nil
}

// engineAnswers runs every fixed statement (and every tuple of every
// prepared one) on typer, on tectorwise and in fast mode, and returns
// the common answers; any disagreement is an error.
func engineAnswers(db *database) (map[string]answer, error) {
	out := map[string]answer{}
	for _, s := range catalog {
		tuples := s.args
		if tuples == nil {
			tuples = [][]int64{nil}
		}
		for _, args := range tuples {
			key := oracleKey(s.name, args)
			var got []answer
			for _, engine := range []string{"typer", "tectorwise", "auto"} {
				c, err := db.compile(s.sql, engine, runtime.NumCPU())
				if err == nil && c.params() > 0 {
					c, err = c.bind(args)
				}
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", key, engine, err)
				}
				var a answer
				if engine == "auto" {
					a, err = c.runFast(runtime.NumCPU())
				} else {
					var m measuredRun
					m, err = c.runMeasured(1)
					a = m.ans
				}
				if err != nil {
					return nil, fmt.Errorf("%s on %s: %w", key, engine, err)
				}
				got = append(got, a)
			}
			if got[0] != got[1] || got[0] != got[2] {
				return nil, fmt.Errorf("%s: typer %v, tectorwise %v, fast %v disagree", key, got[0], got[1], got[2])
			}
			out[key] = got[0]
		}
	}
	return out, nil
}

// updateGolden rewrites golden.json in the current directory from the
// engines' agreed answers on the quick database.
func updateGolden() error {
	db := openDatabase(true, 0)
	known, err := engineAnswers(db)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(goldenFile{
		Note:       "answers on `olapserve -quick` (SF 0.25); written by -update-golden after typer, tectorwise and fast mode agreed",
		Lineitem:   db.rows("lineitem"),
		Statements: known,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(b, '\n'), 0o644)
}
