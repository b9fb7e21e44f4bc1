package lint

// errdrop: the ledger, the observability layer and the record store
// are the module's durable write paths — a swallowed error there is a
// truncated JSONL ledger that still audits "ok", a metrics export
// missing its tail, an archive that silently lost records. Any call
// into internal/ledger, internal/obs or internal/store whose error
// result is discarded — a bare expression statement, an assignment to
// blank, or a go/defer statement — is a finding. So is a discarded
// Close on a file the same function opened for writing with os.Create
// or os.OpenFile: Close is where a full disk or a failed flush shows
// up, and `defer f.Close()` after a write loses it. Genuine best-effort
// sites (error paths that already return a better error) carry
// //beelint:allow errdrop <reason> like every other audited escape.

import (
	"go/ast"
	"go/types"
)

// createdFiles returns the variables of f assigned the *os.File result
// of os.Create or os.OpenFile.
func createdFiles(info *types.Info, f *ast.File) map[types.Object]bool {
	files := map[types.Object]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var lhs, rhs []ast.Expr
		switch s := n.(type) {
		case *ast.AssignStmt:
			lhs, rhs = s.Lhs, s.Rhs
		case *ast.ValueSpec:
			for _, id := range s.Names {
				lhs = append(lhs, id)
			}
			rhs = s.Values
		default:
			return true
		}
		if len(rhs) != 1 || len(lhs) == 0 {
			return true
		}
		call, ok := rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" ||
			(fn.Name() != "Create" && fn.Name() != "OpenFile") {
			return true
		}
		if id, ok := lhs[0].(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				files[obj] = true
			}
		}
		return true
	})
	return files
}

// closesCreatedFile reports whether call is x.Close() on one of files,
// returning the variable's name for the message.
func closesCreatedFile(info *types.Info, files map[types.Object]bool, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" || len(call.Args) != 0 {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || !files[info.ObjectOf(id)] {
		return "", false
	}
	return id.Name, true
}

// errDropPkgs are the write-path packages whose error results must not
// be dropped.
var errDropPkgs = []string{
	"internal/ledger",
	"internal/obs",
	"internal/store",
}

// droppablePathErr reports whether call targets an error-returning
// function declared in one of the guarded packages, returning the
// rendered name for the message.
func droppablePathErr(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	guarded := false
	for _, p := range errDropPkgs {
		if pathHasSuffix(fn.Pkg().Path(), p) {
			guarded = true
			break
		}
	}
	if !guarded {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return "", false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Name() != "error" || named.Obj().Pkg() != nil {
		return "", false
	}
	return shortFunc(fn), true
}

var analyzerErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "discarded errors on ledger/obs/store write paths and written files' Close",
	Run: func(p *Pass) {
		info := p.Pkg.Info
		var files map[types.Object]bool
		report := func(call *ast.CallExpr, how string) {
			if name, ok := closesCreatedFile(info, files, call); ok {
				p.Reportf(call.Pos(),
					"%s.Close on a file from os.Create/os.OpenFile returns an error that is %s; "+
						"a failed flush would go unreported (return it, e.g. errors.Join(err, %s.Close()))",
					name, how, name)
				return
			}
			name, ok := droppablePathErr(info, call)
			if !ok {
				return
			}
			p.Reportf(call.Pos(),
				"%s returns an error that is %s; ledger/obs/store write errors must be "+
					"handled (annotate best-effort sites with //beelint:allow errdrop <reason>)",
				name, how)
		}
		inspectFiles(p, func(n ast.Node) bool {
			if f, ok := n.(*ast.File); ok {
				files = createdFiles(info, f)
			}
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					report(call, "discarded")
				}
			case *ast.GoStmt:
				report(s.Call, "discarded by go")
			case *ast.DeferStmt:
				report(s.Call, "discarded by defer")
			case *ast.AssignStmt:
				// Blank assignment of the error position: `_ = w.Close()`
				// or `v, _ := store.Open(...)` where _ holds the error.
				for i, rhs := range s.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					// Single call on the RHS: the error is the last LHS
					// slot; one-to-one assignments align by index.
					var errLHS ast.Expr
					if len(s.Rhs) == 1 {
						errLHS = s.Lhs[len(s.Lhs)-1]
					} else if i < len(s.Lhs) {
						errLHS = s.Lhs[i]
					}
					if id, ok := errLHS.(*ast.Ident); ok && id.Name == "_" {
						report(call, "assigned to _")
					}
				}
			}
			return true
		})
	},
}
