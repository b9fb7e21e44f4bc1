package lint

// unitcast: internal/units exists so that a Joules can never silently
// become a Watts. Two patterns defeat it:
//
//  1. laundering — `float64(e) + float64(p)` strips both wrappers and
//     adds energy to power inside one expression; the compiler is
//     happy, the physics is wrong. Addition and subtraction of two
//     different units types through float64 casts is flagged
//     (multiplication and division are legitimate dimensional math).
//
//  2. bare constants — passing an untyped constant where a units
//     parameter is expected (`pack.Discharge(2.5, d)`) type-checks via
//     implicit conversion, hiding which unit the number is in.
//     Non-zero constants must be written as explicit conversions
//     (`units.Watts(2.5)`).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// castUnitsNames collects the sorted, distinct names of internal/units
// types that appear as float64(conversion) sources anywhere inside e.
// Sorted names keep the eventual diagnostic byte-stable.
func castUnitsNames(info *types.Info, e ast.Expr) []string {
	seen := make(map[string]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return true
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || basic.Kind() != types.Float64 {
			return true
		}
		if named, ok := unitsType(info.TypeOf(call.Args[0])); ok {
			seen[named.Obj().Name()] = true
		}
		return true
	})
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// unitCastMix reports an add/sub whose operands cast two different
// units types down to float64.
func unitCastMix(p *Pass, bin *ast.BinaryExpr) {
	info := p.Pkg.Info
	left := castUnitsNames(info, bin.X)
	right := castUnitsNames(info, bin.Y)
	for _, l := range left {
		for _, r := range right {
			if l != r {
				p.Reportf(bin.OpPos,
					"float64 casts mix %s and %s across %q: dimensionally distinct units "+
						"must be converted explicitly before combining", l, r, bin.Op)
				return
			}
		}
	}
}

// bareConstArg reports non-zero untyped constants passed where a
// units-typed parameter is expected.
func bareConstArg(p *Pass, call *ast.CallExpr) {
	info := p.Pkg.Info
	if tv, ok := info.Types[call.Fun]; !ok || tv.IsType() {
		return // conversions like units.Joules(5) are the fix, not the bug
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = slice.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		named, ok := unitsType(pt)
		if !ok {
			continue
		}
		lit := bareNumericLit(arg)
		if lit == nil {
			continue
		}
		if tv, ok := info.Types[arg]; !ok || tv.Value == nil {
			continue // not a constant after all
		}
		if lit.Value == "0" || lit.Value == "0.0" {
			continue // the zero value is unambiguous
		}
		p.Reportf(arg.Pos(),
			"untyped constant becomes %s implicitly; write %s(%s) so the unit is visible "+
				"at the call site", named.Obj().Name(), named.Obj().Name(), lit.Value)
	}
}

// bareNumericLit unwraps parens and a leading minus down to a numeric
// literal, or returns nil.
func bareNumericLit(e ast.Expr) *ast.BasicLit {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.SUB && v.Op != token.ADD {
				return nil
			}
			e = v.X
		case *ast.BasicLit:
			if v.Kind == token.INT || v.Kind == token.FLOAT {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

var analyzerUnitCast = &Analyzer{
	Name: "unitcast",
	Doc:  "float64 casts mixing distinct units types; bare constants where units are expected",
	Run: func(p *Pass) {
		inspectFiles(p, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.BinaryExpr:
				if v.Op == token.ADD || v.Op == token.SUB {
					unitCastMix(p, v)
				}
			case *ast.CallExpr:
				bareConstArg(p, v)
			}
			return true
		})
	},
}
