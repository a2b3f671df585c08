package analysis

import (
	"go/ast"
	"go/types"

	"olapmicro/internal/analysis/lintkit"
)

// Recoverguard requires every goroutine launched in the server to
// carry a panic barrier in its own frame: a goroutine with no recover
// turns any query-scoped fault into process death, silently undoing
// the serving path's panic-isolation contract. A frame is guarded
// when it contains a deferred recover() itself, or when it calls a
// same-package function that does (the delegation pattern: the
// session's reporter goroutine, whose body is a call to safeReport).
// Goroutines that are intentionally unguarded carry a //olap:allow
// recoverguard annotation with a reason.
var Recoverguard = &lintkit.Analyzer{
	Name:  "recoverguard",
	Doc:   "requires a recover barrier in every goroutine the server launches",
	Scope: serverScope,
	Run:   runRecoverguard,
}

func runRecoverguard(pass *lintkit.Pass) error {
	// recovering holds every package function whose body contains a
	// deferred recover; bodies maps functions to their declarations so
	// named goroutine entry points can be checked where they are
	// defined.
	recovering := map[*types.Func]bool{}
	bodies := map[*types.Func]*ast.BlockStmt{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			bodies[fn] = fd.Body
			if hasDeferredRecover(pass, fd.Body) {
				recovering[fn] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := g.Call.Fun.(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				if fn := calleeFunc(pass, g.Call); fn != nil {
					if recovering[fn] {
						return true
					}
					body = bodies[fn] // nil for another package's function
				}
			}
			if body != nil && (hasDeferredRecover(pass, body) || callsRecovering(pass, body, recovering)) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine has no recover barrier in its frame; a panic here kills the process, not one query")
			return true
		})
	}
	return nil
}

// hasDeferredRecover reports whether the block contains a deferred
// recover() in this frame. Nested go statements are their own frames
// and are skipped; a bare (non-deferred) recover() returns nil and
// guards nothing, so only recovers under a defer count.
func hasDeferredRecover(pass *lintkit.Pass, b *ast.BlockStmt) bool {
	found := false
	inspectFrame(b, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return !found
		}
		ast.Inspect(d, func(m ast.Node) bool {
			if isRecoverCall(pass, m) {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// callsRecovering reports whether the block calls (in this frame) a
// package function whose own body has a deferred recover.
func callsRecovering(pass *lintkit.Pass, b *ast.BlockStmt, recovering map[*types.Func]bool) bool {
	found := false
	inspectFrame(b, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(pass, call); fn != nil && recovering[fn] {
				found = true
			}
		}
		return !found
	})
	return found
}

// inspectFrame walks a goroutine body without descending into nested
// go statements — those run in frames of their own, and a recover
// there protects them, not this goroutine.
func inspectFrame(b *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(b, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		return fn(n)
	})
}

// isRecoverCall reports whether n is a call of the recover builtin.
func isRecoverCall(pass *lintkit.Pass, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin && id.Name == "recover"
}

// calleeFunc resolves a call's target to a declared function or
// method, or nil for builtins, function values and conversions.
func calleeFunc(pass *lintkit.Pass, call *ast.CallExpr) *types.Func {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}
