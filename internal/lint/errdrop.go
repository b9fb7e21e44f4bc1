package lint

// errdrop: the ledger, the observability layer and the record store
// are the module's durable write paths — a swallowed error there is a
// truncated JSONL ledger that still audits "ok", a metrics export
// missing its tail, an archive that silently lost records. Any call
// into internal/ledger, internal/obs or internal/store whose error
// result is discarded — a bare expression statement, an assignment to
// blank, or a go/defer statement — is a finding. Genuine best-effort
// sites (error paths that already return a better error) carry
// //beelint:allow errdrop <reason> like every other audited escape.

import (
	"go/ast"
	"go/types"
)

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
	Doc:  "discarded errors on ledger/obs/store write paths",
	Run: func(p *Pass) {
		info := p.Pkg.Info
		report := func(call *ast.CallExpr, how string) {
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
