package lint

// sharedcapture: internal/parallel's contract is fork/join with an
// index-ordered merge — each task returns its result (Map) or writes
// only its own index range (MapChunks). The contract dies quietly when
// a task closure writes to state captured from the enclosing scope: a
// captured counter += is a data race -race may or may not catch, and a
// captured map write corrupts the map outright. This analyzer is the
// static complement to the race detector: it flags, inside function
// literals passed to internal/parallel entry points, every write to a
// variable declared outside the literal.
//
// The sanctioned idiom stays clean: writes through an index expression
// whose index is derived from the literal's own parameters
// (out[i] = …, rows[f] with f := lo…hi) are each task's private slot
// and are exempt. Captured map writes are never exempt — concurrent
// map writes race even on distinct keys.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var analyzerSharedCapture = &Analyzer{
	Name: "sharedcapture",
	Doc:  "mutable state captured by closures passed to internal/parallel (races the fork/join contract)",
	Run: func(p *Pass) {
		info := p.Pkg.Info
		inspectFiles(p, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), "internal/parallel") {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				checkCapturedWrites(p, lit, fn.Name())
			}
			return true
		})
	},
}

// checkCapturedWrites walks a task literal's body and reports writes
// to captured variables.
func checkCapturedWrites(p *Pass, lit *ast.FuncLit, entry string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				reportCapturedWrite(p, lit, lhs, entry)
			}
		case *ast.IncDecStmt:
			reportCapturedWrite(p, lit, s.X, entry)
		case *ast.RangeStmt:
			// for k, v = range … with = (not :=) assigns captured vars.
			if s.Tok == token.ASSIGN {
				if s.Key != nil {
					reportCapturedWrite(p, lit, s.Key, entry)
				}
				if s.Value != nil {
					reportCapturedWrite(p, lit, s.Value, entry)
				}
			}
		}
		return true
	})
}

// reportCapturedWrite reports lhs when it writes to state captured
// from outside lit, honoring the private-slot exemption.
func reportCapturedWrite(p *Pass, lit *ast.FuncLit, lhs ast.Expr, entry string) {
	info := p.Pkg.Info
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return
	}
	if declaredWithin(info, root, lit) {
		return // task-local state
	}
	// Writes through an index derived from the literal's own
	// parameters or locals hit each task's private slot — the
	// sanctioned MapChunks idiom. Maps are excluded: concurrent map
	// writes race regardless of key.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if !baseIsMap(info.TypeOf(idx.X)) && indexUsesLocal(info, idx.Index, lit) {
			return
		}
	}
	p.Reportf(lhs.Pos(),
		"write to %q captured from outside the task closure passed to parallel.%s: "+
			"tasks must return results or write only their own index slot "+
			"(the fork/join contract; see docs/PERFORMANCE.md)", root.Name, entry)
}

// baseIsMap reports whether t's underlying (after pointers) is a map.
func baseIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	u := t.Underlying()
	if ptr, ok := u.(*types.Pointer); ok {
		u = ptr.Elem().Underlying()
	}
	_, ok := u.(*types.Map)
	return ok
}

// indexUsesLocal reports whether the index expression references any
// identifier declared inside the literal (parameters included).
func indexUsesLocal(info *types.Info, index ast.Expr, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(index, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && declaredWithin(info, id, lit) {
			found = true
		}
		return !found
	})
	return found
}
