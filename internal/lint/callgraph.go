package lint

// Module-wide call graph. beelint v1 judged every function in
// isolation, which meant an invariant could be laundered through one
// level of indirection: a helper in another package reads the wall
// clock under its own audited annotation, and a simulated caller picks
// the value up scot-free. The call graph is the substrate that closes
// that hole — it records, for every function declared in the module
// (and in fixture trees checked alongside it), which declared functions
// it statically calls and where.
//
// The graph is deliberately simple: nodes are *types.Func objects for
// declared functions and methods; edges are direct static calls
// (package-level calls, method calls on concrete receivers, and calls
// through function-valued selectors that go/types resolves to a single
// *types.Func). Calls through interface methods or function values are
// not resolved — the analyzers that consume the graph treat them the
// way v1 treated everything: invisible. That keeps the engine sound
// for its purpose (no false "clean" from a *resolved* edge) without
// dragging in pointer analysis.
//
// Everything is ordered: nodes sort by position, edges by call-site
// offset, so any traversal — and therefore any finding message built
// from a chain — is byte-stable across runs.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// callSite is one static call edge origin.
type callSite struct {
	// Pos is the position of the call expression.
	Pos token.Pos
	// Callee is the resolved target.
	Callee *types.Func
}

// funcNode is one declared function or method in the analyzed package
// set.
type funcNode struct {
	// Fn is the canonical object (methods use the declared receiver's
	// object, never an instantiation).
	Fn *types.Func
	// Decl is the syntax, with Body possibly nil for declarations
	// without bodies (assembly stubs; none exist in this module, but
	// the graph tolerates them).
	Decl *ast.FuncDecl
	// Pkg is the analyzed package the declaration lives in.
	Pkg *Package
	// Calls are the static call sites inside Decl (including those in
	// nested function literals, which execute with the enclosing
	// function's dynamic extent for the invariants beelint polices),
	// ordered by position.
	Calls []callSite
}

// callGraph indexes the declared functions of a package set.
type callGraph struct {
	// Nodes maps each declared function to its node.
	Nodes map[*types.Func]*funcNode
	// Funcs lists the nodes in deterministic (file, offset) order.
	Funcs []*funcNode
	// Callers maps a callee to the nodes that call it, in the same
	// deterministic order.
	Callers map[*types.Func][]*funcNode
}

// buildCallGraph constructs the call graph over the given packages.
// Packages must share the fset they were parsed with.
func buildCallGraph(pkgs []*Package, fset *token.FileSet) *callGraph {
	g := &callGraph{
		Nodes:   make(map[*types.Func]*funcNode),
		Callers: make(map[*types.Func][]*funcNode),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{Fn: obj, Decl: fd, Pkg: pkg}
				if fd.Body != nil {
					node.Calls = collectCalls(pkg.Info, fd.Body)
				}
				g.Nodes[obj] = node
			}
		}
	}
	for _, node := range g.Nodes {
		g.Funcs = append(g.Funcs, node)
	}
	sort.Slice(g.Funcs, func(i, j int) bool {
		pi := fset.Position(g.Funcs[i].Decl.Pos())
		pj := fset.Position(g.Funcs[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	for _, node := range g.Funcs {
		seen := make(map[*types.Func]bool)
		for _, cs := range node.Calls {
			if seen[cs.Callee] {
				continue
			}
			seen[cs.Callee] = true
			g.Callers[cs.Callee] = append(g.Callers[cs.Callee], node)
		}
	}
	return g
}

// collectCalls gathers the static call sites in body, ordered by
// position (ast.Inspect visits in source order).
func collectCalls(info *types.Info, body *ast.BlockStmt) []callSite {
	var calls []callSite
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := staticCallee(info, call); callee != nil {
			calls = append(calls, callSite{Pos: call.Pos(), Callee: callee})
		}
		return true
	})
	return calls
}

// staticCallee resolves a call expression to the declared function it
// invokes, or nil for builtins, conversions, function values and
// interface-method calls. Generic instantiations resolve to their
// origin so summaries are computed once per declaration.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// Interface methods have no body to summarize; the dynamic callee
	// is unknowable statically, so the edge is dropped.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if types.IsInterface(recv.Type()) {
			return nil
		}
	}
	return fn.Origin()
}
