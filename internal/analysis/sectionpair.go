package analysis

import (
	"go/ast"
	"go/token"

	"olapmicro/internal/analysis/lintkit"
)

// Sectionpair checks that every probe.BeginSection is matched by an
// EndSection (or Sections, which closes implicitly) on every
// control-flow path through the enclosing function — either inline or
// by a defer. A section left open past its function misattributes
// every later counter delta to the wrong operator, which corrupts
// EXPLAIN ANALYZE silently: the totals still add up, only the
// attribution lies.
//
// Functions that leave a section open by design — the engines'
// RunMorsel bodies treat BeginSection as a switch and rely on
// Sections() to close the last one — carry a function-scoped
// //olap:allow sectionpair annotation on their declaration.
//
// The check walks an abstract CFG: if/else, for/range (0-or-1
// iterations to a fixpoint), switch/select forks, returns, defers. A
// nil-guard `if p != nil { p.BeginSection(...) }` whose body contains
// only section calls is treated as unconditional, matching the
// probe's own nil-gating, so guarded begins pair with guarded ends
// instead of forking spurious paths.
var Sectionpair = &lintkit.Analyzer{
	Name: "sectionpair",
	Doc:  "requires BeginSection/EndSection to pair on every control-flow path",
	Run:  runSectionpair,
}

func runSectionpair(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil || !usesSections(body) {
				return true
			}
			w := &sectionWalker{pass: pass}
			out := w.block(body.List, []secState{{}})
			for _, st := range out {
				if st.open && !st.deferClose {
					pass.Reportf(body.Rbrace,
						"function can return with a probe section still open: BeginSection is not matched by EndSection on every path (defer it, close it, or annotate the function //olap:allow sectionpair)")
					break
				}
			}
			return true // still visit nested literals
		})
	}
	return nil
}

// usesSections reports whether the body calls BeginSection directly
// (nested function literals are analyzed on their own).
func usesSections(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if sectionCallKind(n) == sectionBegin {
			found = true
			return false
		}
		return true
	})
	return found
}

type sectionCall int

const (
	sectionNone sectionCall = iota
	sectionBegin
	sectionEnd
)

// sectionCallKind classifies a node as a BeginSection or
// EndSection/Sections method call. Matching is by method name: the
// probe package owns these names, and name-matching keeps fixtures
// self-contained.
func sectionCallKind(n ast.Node) sectionCall {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return sectionNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return sectionNone
	}
	switch sel.Sel.Name {
	case "BeginSection":
		return sectionBegin
	case "EndSection", "Sections":
		return sectionEnd
	}
	return sectionNone
}

// secState is one abstract path state: whether a section is open and
// whether a deferred close is pending.
type secState struct {
	open       bool
	deferClose bool
}

type sectionWalker struct {
	pass *lintkit.Pass
}

func mergeStates(a, b []secState) []secState {
	out := a
	for _, s := range b {
		found := false
		for _, t := range out {
			if s == t {
				found = true
				break
			}
		}
		if !found {
			out = append(out, s)
		}
	}
	return out
}

func (w *sectionWalker) block(stmts []ast.Stmt, in []secState) []secState {
	states := in
	for _, s := range stmts {
		states = w.stmt(s, states)
		if len(states) == 0 {
			break // every path returned or branched away
		}
	}
	return states
}

func (w *sectionWalker) stmt(s ast.Stmt, in []secState) []secState {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		in = w.applyCalls(s, in)
		w.checkReturn(s.Pos(), in)
		return nil
	case *ast.DeferStmt:
		if sectionCallKind(s.Call) == sectionEnd {
			out := make([]secState, 0, len(in))
			for _, st := range in {
				st.deferClose = true
				out = mergeStates(out, []secState{st})
			}
			return out
		}
		return in
	case *ast.IfStmt:
		if s.Init != nil {
			in = w.applyCalls(s.Init, in)
		}
		in = w.applyCalls(s.Cond, in)
		if nilGuardedSections(s) {
			return w.block(s.Body.List, in)
		}
		thenOut := w.block(s.Body.List, in)
		var elseOut []secState
		if s.Else != nil {
			elseOut = w.stmt(s.Else, in)
		} else {
			elseOut = in
		}
		return mergeStates(thenOut, elseOut)
	case *ast.BlockStmt:
		return w.block(s.List, in)
	case *ast.ForStmt:
		return w.loop(s.Body, in, s.Init, s.Cond, s.Post)
	case *ast.RangeStmt:
		return w.loop(s.Body, w.applyCalls(s.X, in), nil, nil, nil)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			body = sw.Body
			in = w.applyCalls(sw.Tag, in)
		case *ast.TypeSwitchStmt:
			body = sw.Body
		case *ast.SelectStmt:
			body = sw.Body
		}
		out := in // no matching case falls through
		for _, c := range body.List {
			switch c := c.(type) {
			case *ast.CaseClause:
				out = mergeStates(out, w.block(c.Body, in))
			case *ast.CommClause:
				out = mergeStates(out, w.block(c.Body, in))
			}
		}
		return out
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, in)
	case *ast.BranchStmt:
		// break/continue/goto: path leaves this region; conservatively
		// stop tracking it (the loop fixpoint already models re-entry).
		return nil
	default:
		return w.applyCalls(s, in)
	}
}

// loop models a body executing zero or more times: iterate to a
// fixpoint over the (tiny) state lattice.
func (w *sectionWalker) loop(body *ast.BlockStmt, in []secState, extra ...ast.Node) []secState {
	for _, n := range extra {
		if n != nil {
			in = w.applyCalls(n, in)
		}
	}
	states := in
	for {
		next := mergeStates(states, w.block(body.List, states))
		if len(next) == len(states) {
			return states
		}
		states = next
	}
}

// applyCalls folds the section calls syntactically contained in n (in
// source order, skipping nested function literals) into every state.
func (w *sectionWalker) applyCalls(n ast.Node, in []secState) []secState {
	if n == nil {
		return in
	}
	var kinds []sectionCall
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if k := sectionCallKind(c); k != sectionNone {
			kinds = append(kinds, k)
		}
		return true
	})
	if len(kinds) == 0 {
		return in
	}
	out := make([]secState, 0, len(in))
	for _, st := range in {
		for _, k := range kinds {
			switch k {
			case sectionBegin:
				st.open = true
			case sectionEnd:
				st.open = false
			}
		}
		out = mergeStates(out, []secState{st})
	}
	return out
}

func (w *sectionWalker) checkReturn(pos token.Pos, states []secState) {
	for _, st := range states {
		if st.open && !st.deferClose {
			w.pass.Reportf(pos,
				"return with a probe section still open: BeginSection is not matched by EndSection on this path")
			return
		}
	}
}

// nilGuardedSections recognizes `if x != nil { <only section calls> }`
// (no else): a nil probe has no sections to open or close, so the guard
// is equivalent to executing the body unconditionally.
func nilGuardedSections(s *ast.IfStmt) bool {
	if s.Else != nil {
		return false
	}
	bin, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return false
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if !isNil(bin.X) && !isNil(bin.Y) {
		return false
	}
	for _, st := range s.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok || sectionCallKind(es.X) == sectionNone {
			if ds, ok := st.(*ast.DeferStmt); ok && sectionCallKind(ds.Call) != sectionNone {
				continue
			}
			return false
		}
	}
	return true
}
