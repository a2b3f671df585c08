package analysis_test

import (
	"sync"
	"testing"

	"olapmicro/internal/analysis"
	"olapmicro/internal/analysis/lintkit"
)

// Each analyzer is pinned against a golden fixture package under
// testdata/src: positive cases carry // want comments, negative cases
// none, and every fixture includes a load-bearing //olap:allow plus a
// stale one (the staleness diagnostic is part of the contract).

func TestDetrange(t *testing.T) {
	lintkit.RunTest(t, "testdata/src/detrange/a", analysis.Detrange)
}

func TestWallclock(t *testing.T) {
	lintkit.RunTest(t, "testdata/src/wallclock/a", analysis.Wallclock)
}

func TestSectionpair(t *testing.T) {
	lintkit.RunTest(t, "testdata/src/sectionpair/a", analysis.Sectionpair)
}

func TestAtomicfield(t *testing.T) {
	lintkit.RunTest(t, "testdata/src/atomicfield/a", analysis.Atomicfield)
}

func TestHotalloc(t *testing.T) {
	lintkit.RunTest(t, "testdata/src/hotalloc/a", analysis.Hotalloc)
}

func TestRecoverguard(t *testing.T) {
	lintkit.RunTest(t, "testdata/src/recoverguard/a", analysis.Recoverguard)
}

// TestAllNamesUnique guards the //olap:allow grammar: analyzer names
// are the annotation keys, so they must be distinct and lowercase.
func TestAllNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.All() {
		if a.Name == "" {
			t.Fatalf("analyzer with empty name (doc %q)", a.Doc)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		for _, r := range a.Name {
			if r < 'a' || r > 'z' {
				t.Fatalf("analyzer name %q is not lowercase-alphabetic (the //olap:allow grammar requires it)", a.Name)
			}
		}
	}
}

// TestSuiteCleanOnTree is the self-test CI depends on: the shipped
// tree must produce zero diagnostics (fixed true positives stay fixed,
// every annotation stays load-bearing).
func TestSuiteCleanOnTree(t *testing.T) {
	for _, pkg := range loadTree(t) {
		diags, err := lintkit.RunPackage(pkg, analysis.All())
		if err != nil {
			t.Fatalf("running suite on %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

var tree struct {
	once sync.Once
	pkgs []*lintkit.Package
	err  error
}

// loadTree loads and type-checks the root module once per test binary,
// for every test that inspects the shipped tree. Under -short it skips
// the calling test instead.
func loadTree(t *testing.T) []*lintkit.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	tree.once.Do(func() { tree.pkgs, tree.err = lintkit.Load("../..", "./...") })
	if tree.err != nil {
		t.Fatalf("loading module: %v", tree.err)
	}
	return tree.pkgs
}
