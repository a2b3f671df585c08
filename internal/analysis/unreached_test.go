package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"olapmicro/internal/analysis/lintkit"
)

// keep lists the production declarations under internal/ that no
// production file references but that stay, each with its reason. Keys
// are the import path below olapmicro/internal/, a dot, and the name;
// methods are Type.Method. An entry whose name gains a reference or
// disappears fails TestNoUnreachedCode, the same staleness rule
// //olap:allow follows.
var keep = map[string]string{
	"analysis/lintkit.RunTest": "the analyzer tests' fixture driver; it needs *testing.T, and a _test.go file cannot be imported by another package's tests",
	"faults.New":               "the chaos and resilience suites build their fault schedules with it; production servers run with a nil injector",
	"faults.Injector.Enable":   "arms a fault point in the chaos and resilience suites",
	"faults.Injector.Count":    "the chaos suites assert how often a fault point was reached",
	"faults.Injector.Fired":    "the chaos suites assert how often a fault point fired",
	"server.WithEngine":        "the concurrent differential test alternates engines per submission with it",
	"server.WithThreads":       "the concurrent differential test and the server's thread-clamp test set per-submission thread counts with it",
	"server.Server.Telemetry":  "the root package's serving benchmark test reads the latency histograms through it, the resilience tests a counter",
	"probe.Probe.Reset":        "kept for the simulator slice of ROADMAP item 2, which reuses probes per scan slot; deleting it deletes the reset chain beneath it",
}

// TestNoUnreachedCode fails on every package-level func, method, var,
// const or type declared in a production file under internal/ that no
// production file of the root module or of the nested benchmark/
// module references (a method's own receiver does not count). `go vet`
// sees one package at a time, so this whole-program fact is checked
// here rather than by an analyzer. Exempt are methods whose name an
// interface type the loaded code declares or names declares, or that
// error, fmt.Stringer or the errors package call — they are reached
// through dynamic dispatch — and constants of an iota block, whose
// deletion would renumber the ones after them.
func TestNoUnreachedCode(t *testing.T) {
	root := loadTree(t)
	bench, err := lintkit.Load("../../benchmark", "./...")
	if err != nil {
		t.Fatalf("loading benchmark module: %v", err)
	}

	used := map[string]bool{}
	// error, fmt.Stringer and the errors package's Unwrap/Is protocol
	// are called by the standard library through interfaces no loaded
	// file names.
	dispatched := map[string]bool{"Error": true, "String": true, "Unwrap": true, "Is": true}
	for _, pkg := range slices.Concat(root, bench) {
		info := pkg.TypesInfo
		receivers := receiverIdents(pkg.Files)
		for id, obj := range info.Uses {
			if !receivers[id] {
				used[declKey(obj)] = true
			}
			if tn, ok := obj.(*types.TypeName); ok {
				interfaceMethods(tn.Type(), dispatched)
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				interfaceMethods(tn.Type(), dispatched)
			}
		}
		for _, sel := range info.Selections {
			used[declKey(sel.Obj())] = true
			if n := namedOf(sel.Recv()); n != nil {
				used[declKey(n.Obj())] = true
			}
		}
	}

	checked := map[string]bool{}
	var unreached []string
	for _, pkg := range root {
		if !strings.HasPrefix(pkg.Path, "olapmicro/internal/") {
			continue
		}
		iota := iotaConsts(pkg.Files)
		report := func(obj types.Object) {
			key := declKey(obj)
			checked[key] = true
			if used[key] {
				return
			}
			if _, ok := keep[key]; ok {
				return
			}
			unreached = append(unreached, pkg.Fset.Position(obj.Pos()).String()+": "+key+" is referenced by no production file")
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || iota[obj.Pos()] {
				continue
			}
			report(obj)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					for i := range n.NumMethods() {
						if m := n.Method(i); !dispatched[m.Name()] {
							report(m)
						}
					}
				}
			}
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Error(u)
	}
	for key := range keep {
		switch {
		case !checked[key]:
			t.Errorf("keep entry %s: no such declaration, or an exempt one (delete the entry)", key)
		case used[key]:
			t.Errorf("keep entry %s: now referenced by production code (delete the entry)", key)
		}
	}
}

// declKey names a package-level object or method the way keep does;
// "" for anything else (locals, fields, universe objects).
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := strings.TrimPrefix(obj.Pkg().Path(), "olapmicro/internal/")
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return path + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// namedOf is the named type behind t or *t, nil if there is none.
func namedOf(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// interfaceMethods adds to names the methods t declares when t is an
// interface type.
func interfaceMethods(t types.Type, names map[string]bool) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := range it.NumMethods() {
			names[it.Method(i).Name()] = true
		}
	}
}

// receiverIdents is the set of identifiers in method receivers: a
// type's own methods do not reach it.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	set := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						set[id] = true
					}
					return true
				})
			}
		}
	}
	return set
}

// iotaConsts is the set of constants declared in a const block that
// uses iota.
func iotaConsts(files []*ast.File) map[token.Pos]bool {
	set := map[token.Pos]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || !usesIota(gd) {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					set[name.Pos()] = true
				}
			}
		}
	}
	return set
}

func usesIota(gd *ast.GenDecl) bool {
	found := false
	ast.Inspect(gd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
