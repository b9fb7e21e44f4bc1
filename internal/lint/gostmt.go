package lint

// gostmt: the DES engine is single-threaded by design — determinism is
// guaranteed by a sequence-numbered timer calendar, and a goroutine
// launched from inside a timer handler races the calendar itself.
// internal/parallel is the single sanctioned concurrency entry point
// for simulated code, so the analyzer enforces three rules:
//
//  1. go statements inside DES handlers (the callbacks passed to
//     des.Sim.Every) are findings.
//  2. Calls into internal/parallel from inside a DES handler are
//     findings too: fan-out must happen outside the simulated event
//     loop, or the pool's goroutines race the calendar just the same.
//  3. Any other go statement in simulated code is a finding — express
//     the concurrency through parallel.Map/MapChunks so the
//     determinism contract (index-ordered merge, per-task rng streams)
//     comes for free. internal/parallel itself and the real-I/O
//     networking code are exempt.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// desCallbackMethods maps des receiver type name -> methods whose
// function-literal arguments run as event handlers.
var desCallbackMethods = map[string]map[string]bool{
	"Sim": {"Every": true},
}

// gostmtExemptPkgs may spawn goroutines without annotation:
// internal/parallel is the sanctioned fork/join layer, and the hivenet
// server, CLI and example are real network I/O where goroutine-per-
// connection is the idiom and no virtual clock exists to race.
var gostmtExemptPkgs = []string{
	"internal/parallel",
	"internal/hivenet",
	"cmd/hivenet",
	"cmd/hiveload", // boots in-process server shards (goroutine-per-listener, like cmd/hivenet)
	"examples/networkedapiary",
}

var analyzerGoStmt = &Analyzer{
	Name: "gostmt",
	Doc:  "goroutines outside internal/parallel, and concurrency launched from DES event handlers",
	Run: func(p *Pass) {
		for _, exempt := range gostmtExemptPkgs {
			if pathHasSuffix(p.Pkg.Path, exempt) {
				return
			}
		}
		info := p.Pkg.Info

		// handlerRanges are the body extents of DES event-handler
		// literals; go statements inside them get the handler-specific
		// diagnosis, everything else the general one.
		type handlerRange struct{ pos, end token.Pos }
		var handlers []handlerRange

		inspectFiles(p, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			named, ok := namedFrom(info.TypeOf(sel.X), "internal/des")
			if !ok {
				return true
			}
			methods := desCallbackMethods[named.Obj().Name()]
			if methods == nil || !methods[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				handlers = append(handlers, handlerRange{pos: lit.Body.Pos(), end: lit.Body.End()})
				ast.Inspect(lit.Body, func(b ast.Node) bool {
					switch b := b.(type) {
					case *ast.GoStmt:
						p.Reportf(b.Pos(),
							"go statement inside a des.%s.%s handler: the event calendar is "+
								"single-threaded; schedule further events instead of spawning goroutines",
							named.Obj().Name(), sel.Sel.Name)
					case *ast.SelectorExpr:
						if fn, ok := info.Uses[b.Sel].(*types.Func); ok &&
							fromPkgSuffix(fn.Pkg(), "internal/parallel") {
							p.Reportf(b.Pos(),
								"parallel.%s inside a des.%s.%s handler: the event calendar is "+
									"single-threaded; fan out before or after the simulated event loop, not from within it",
								b.Sel.Name, named.Obj().Name(), sel.Sel.Name)
						}
					}
					return true
				})
			}
			return true
		})

		inHandler := func(pos token.Pos) bool {
			for _, h := range handlers {
				if pos >= h.pos && pos < h.end {
					return true
				}
			}
			return false
		}
		inspectFiles(p, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok || inHandler(g.Pos()) {
				return true
			}
			p.Reportf(g.Pos(),
				"go statement outside internal/parallel: simulated code fans out through "+
					"parallel.Map/MapChunks so results stay deterministic "+
					"(annotate real I/O with //beelint:allow gostmt <reason>)")
			return true
		})
	},
}
