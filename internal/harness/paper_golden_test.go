package harness

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this tree's output")

const goldenPath = "testdata/experiments.golden"

// TestPaperExperimentsGolden pins every number the paper's experiments
// print: Table 1, Figures 1–30 and the four in-text experiments,
// rendered with Figure.String() on the package's shared quick harness.
// The shape tests assert orderings and ratios; this one catches a
// simulator change that moves any printed digit. Figure.String() holds
// no host-clock line, so the file is exact. After a deliberate change
// to the model, rewrite it with
//
//	go test ./internal/harness -run TestPaperExperimentsGolden -update
//
// and review the diff like code.
func TestPaperExperimentsGolden(t *testing.T) {
	hh := h(t)
	var b strings.Builder
	for _, e := range Experiments() {
		b.WriteString(e.Run(hh).String())
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if want := string(raw); got != want {
		t.Errorf("experiment output differs from %s:\n%s", goldenPath, lineDiff(got, want, 20))
	}
}

// lineDiff lists up to max differing lines of two renderings, each
// under the header of the figure it belongs to.
func lineDiff(got, want string, max int) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var b strings.Builder
	figure, shown := "", ""
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if strings.HasPrefix(wl, "== ") {
			figure = wl
		}
		if gl == wl {
			continue
		}
		if max == 0 {
			b.WriteString("...\n")
			break
		}
		max--
		if figure != shown {
			b.WriteString(figure + "\n")
			shown = figure
		}
		b.WriteString("- " + wl + "\n+ " + gl + "\n")
	}
	if len(g) != len(w) {
		b.WriteString("(line counts differ: got " + itoa(len(g)) + ", want " + itoa(len(w)) + ")\n")
	}
	return b.String()
}
