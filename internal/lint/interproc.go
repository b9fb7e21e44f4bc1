package lint

// The interprocedural pass. Three v1 analyzers get module-wide
// summaries layered on top of their file-local checks:
//
//   - walltime: a function that (transitively) reads the wall clock
//     under an audited context — an exempt package like internal/prof,
//     or a //beelint:allow walltime annotation — is wall-TAINTED. The
//     audit covers the context it was written for; a call into the
//     tainted function from a *different, non-exempt package* is a new,
//     unaudited context and is reported at the call site, with the full
//     call chain down to the clock read in the message.
//
//   - unseededrand: the same scheme for banned randomness. A function
//     in a rand-audited file (exempt package or suppressed import) that
//     draws from math/rand or crypto/rand taints its cross-package
//     callers.
//
//   - maprange: the dual direction. A function that (transitively)
//     performs order-observable output — prints, writes to an external
//     writer, or mutates the ledger/obs layer — is a SINK. A map range
//     whose body calls a sink function leaks iteration order exactly
//     like a direct fmt.Println in the loop, and is reported at the
//     range with the chain from the called helper down to the output.
//
// Taint spreads quietly through same-package calls, exempt packages,
// and annotated call sites; it stops — and reports — at the first
// unannotated cross-package call from simulated code. That makes every
// audit boundary walk outward one explicit annotation at a time: the
// ratchet the determinism contract wants.
//
// Sources that are *not* audited (an unsuppressed time.Now in a normal
// package) are already findings from the file-local pass; propagating
// them again would report the same bug at every caller, so they do not
// taint.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// module is the whole-program view handed to the interprocedural pass.
type module struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Graph *callGraph
	// Root is the directory findings are reported relative to (the
	// module root for real runs, the repo root for fixture tests).
	Root string
	// sup is the union of every package's suppression directives.
	sup *suppressor
	// pkgSet indexes the analyzed packages by path, distinguishing
	// module-internal callees from stdlib ones.
	pkgSet map[string]*Package
}

// newModule builds the call graph and directive index for a package
// set. The returned module is ready for interproceduralFindings.
func newModule(pkgs []*Package, fset *token.FileSet, root string) *module {
	merged := &suppressor{
		file: make(map[string]map[string]bool),
		line: make(map[string]map[int]map[string]bool),
	}
	pkgSet := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		pkgSet[pkg.Path] = pkg
		sup, _ := parseDirectives(pkg, fset)
		for file, checks := range sup.file {
			merged.file[file] = checks
		}
		for file, lines := range sup.line {
			merged.line[file] = lines
		}
	}
	return &module{
		Pkgs:   pkgs,
		Fset:   fset,
		Graph:  buildCallGraph(pkgs, fset),
		Root:   root,
		sup:    merged,
		pkgSet: pkgSet,
	}
}

// suppressedAt reports whether a finding of the given check at the
// given position would be suppressed by a directive anywhere in the
// module.
func (m *module) suppressedAt(pos token.Pos, check string) bool {
	p := m.Fset.Position(pos)
	return m.sup.suppressed(Finding{File: p.Filename, Line: p.Line, Check: check})
}

// relPos renders a position module-root-relative for use inside
// finding messages, so messages are byte-stable across checkouts.
func (m *module) relPos(pos token.Pos) string {
	p := m.Fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// shortFunc renders a function as pkgname.Func or pkgname.Recv.Method
// for chain messages.
func shortFunc(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// taint records why a function is considered tainted: either a direct
// audited source, or a call into another tainted function.
type taint struct {
	// src describes the ultimate source ("time.Now", "math/rand"), set
	// on every link for convenience.
	src string
	// srcPos is the source reference's position.
	srcPos token.Pos
	// via is the tainted callee this function reaches the source
	// through (nil for direct sources).
	via *types.Func
}

// chain renders the call path from fn down to the source:
// "a.Run -> b.Helper -> time.Now (internal/b/b.go:12)".
func (m *module) chain(taints map[*types.Func]*taint, fn *types.Func) string {
	var b strings.Builder
	t := taints[fn]
	b.WriteString(shortFunc(fn))
	for t != nil && t.via != nil {
		b.WriteString(" -> ")
		b.WriteString(shortFunc(t.via))
		t = taints[t.via]
	}
	if t != nil {
		fmt.Fprintf(&b, " -> %s (%s)", t.src, m.relPos(t.srcPos))
	}
	return b.String()
}

// interprocCheck parameterizes the quiet-taint propagation shared by
// walltime and unseededrand.
type interprocCheck struct {
	// name is the check the findings carry ("walltime", ...).
	name string
	// directSource scans one function node for audited source
	// references and returns the first (description, position), or ok
	// false. Unaudited sources must return ok false — the file-local
	// pass already reported them.
	directSource func(m *module, node *funcNode) (string, token.Pos, bool)
	// exemptCaller reports packages whose calls never produce findings
	// (taint spreads through them quietly).
	exemptCaller func(pkgPath string) bool
	// message renders the finding for a call site given the callee
	// chain.
	message func(chain string) string
}

// propagate runs the quiet-taint BFS for one check and appends the
// call-site findings.
func (c *interprocCheck) propagate(m *module, findings *[]Finding) {
	taints := make(map[*types.Func]*taint)
	reported := make(map[*types.Func]bool)
	var queue []*funcNode
	for _, node := range m.Graph.Funcs {
		if desc, pos, ok := c.directSource(m, node); ok {
			taints[node.Fn] = &taint{src: desc, srcPos: pos}
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		callee := queue[0]
		queue = queue[1:]
		for _, caller := range m.Graph.Callers[callee.Fn] {
			if taints[caller.Fn] != nil || reported[caller.Fn] {
				continue
			}
			site := firstCallTo(caller, callee.Fn)
			quiet := c.exemptCaller(caller.Pkg.Path) ||
				caller.Pkg == callee.Pkg ||
				m.suppressedAt(site, c.name)
			if quiet {
				taints[caller.Fn] = &taint{
					src:    taints[callee.Fn].src,
					srcPos: taints[callee.Fn].srcPos,
					via:    callee.Fn,
				}
				queue = append(queue, caller)
				continue
			}
			// The frontier: an unannotated cross-package call from
			// non-exempt code. Report once; the taint stops here until
			// the author audits the site (after which it spreads to the
			// next ring of callers).
			reported[caller.Fn] = true
			pos := m.Fset.Position(site)
			*findings = append(*findings, Finding{
				File:  pos.Filename,
				Line:  pos.Line,
				Col:   pos.Column,
				Check: c.name,
				Msg:   c.message(shortFunc(caller.Fn) + " -> " + m.chain(taints, callee.Fn)),
			})
		}
	}
}

// firstCallTo returns the position of the first call site in caller
// that targets callee.
func firstCallTo(caller *funcNode, callee *types.Func) token.Pos {
	for _, cs := range caller.Calls {
		if cs.Callee == callee {
			return cs.Pos
		}
	}
	return caller.Decl.Pos()
}

// walltimeInterprocExempt are packages whose *calls* into wall-tainted
// helpers are not findings: the profiling layer and the live network
// service, where real time is the point. Everything else — the
// simulator, the deterministic CLIs — must annotate such calls.
var walltimeInterprocExempt = append([]string{
	"internal/hivenet",
	"internal/loadgen", // socket replay against live servers: deadlines and latencies are wall-clock
	"cmd/hivenet",
	"cmd/hiveload", // drives loadgen's live replay
	"examples/networkedapiary",
}, walltimeExemptPkgs...)

// walltimeSource finds an audited wall-clock read in node: a reference
// to a banned time function either inside an exempt package or
// suppressed by an allow directive. Unaudited reads return false (the
// file-local analyzer owns them).
func walltimeSource(m *module, node *funcNode) (string, token.Pos, bool) {
	if node.Decl.Body == nil {
		return "", token.NoPos, false
	}
	exempt := false
	for _, e := range walltimeExemptPkgs {
		if pathHasSuffix(node.Pkg.Path, e) {
			exempt = true
			break
		}
	}
	var desc string
	var at token.Pos
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name, ok := pkgFuncRef(node.Pkg.Info, sel, "time")
		if !ok || !walltimeFuncs[name] {
			return true
		}
		if _, isFunc := node.Pkg.Info.Uses[sel.Sel].(*types.Func); !isFunc {
			return true
		}
		if !exempt && !m.suppressedAt(sel.Pos(), "walltime") {
			return true // loud: the file-local pass reports this one
		}
		desc, at = "time."+name, sel.Pos()
		return false
	})
	return desc, at, desc != ""
}

// randAuditedFile reports whether every banned randomness import in
// the file holding pos is audited (exempt package or suppressed).
func randAuditedFile(m *module, pkg *Package, pos token.Pos) bool {
	if pathHasSuffix(pkg.Path, "internal/rng") {
		return true
	}
	file := m.Fset.Position(pos).Filename
	for _, f := range pkg.Files {
		if m.Fset.Position(f.Package).Filename != file {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if _, banned := bannedRandImports[path]; !banned {
				continue
			}
			if !m.suppressedAt(imp.Pos(), "unseededrand") {
				return false
			}
		}
	}
	return true
}

// randSource finds an audited use of a banned randomness package in
// node.
func randSource(m *module, node *funcNode) (string, token.Pos, bool) {
	if node.Decl.Body == nil {
		return "", token.NoPos, false
	}
	var desc string
	var at token.Pos
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := node.Pkg.Info.Uses[ident].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if _, banned := bannedRandImports[path]; !banned {
			return true
		}
		if !randAuditedFile(m, node.Pkg, sel.Pos()) {
			return true // loud: the import finding already fired
		}
		desc, at = path, sel.Pos()
		return false
	})
	return desc, at, desc != ""
}

// interproceduralFindings runs the module-wide passes and returns
// their findings (unsorted; the caller merges and sorts).
func (m *module) interproceduralFindings() []Finding {
	var findings []Finding
	(&interprocCheck{
		name:         "walltime",
		directSource: walltimeSource,
		exemptCaller: func(path string) bool {
			for _, e := range walltimeInterprocExempt {
				if pathHasSuffix(path, e) {
					return true
				}
			}
			return false
		},
		message: func(chain string) string {
			return fmt.Sprintf("call reaches a wall-clock read through an audited helper "+
				"(call chain: %s); simulated code must take time from des.Sim.Now "+
				"(annotate real I/O with //beelint:allow walltime <reason>)", chain)
		},
	}).propagate(m, &findings)
	(&interprocCheck{
		name:         "unseededrand",
		directSource: randSource,
		exemptCaller: func(path string) bool { return pathHasSuffix(path, "internal/rng") },
		message: func(chain string) string {
			return fmt.Sprintf("call reaches banned randomness through an audited helper "+
				"(call chain: %s); draw from internal/rng instead "+
				"(annotate audited sites with //beelint:allow unseededrand <reason>)", chain)
		},
	}).propagate(m, &findings)
	findings = append(findings, m.mapRangeSinkFindings()...)
	return findings
}

// --- maprange: order-sink summaries -------------------------------

// sinkSummaries computes, for every declared function, whether calling
// it makes output observable (directly or transitively): printing,
// writing to a non-local writer, or mutating the ledger/obs layer.
func (m *module) sinkSummaries() map[*types.Func]*taint {
	sinks := make(map[*types.Func]*taint)
	var queue []*funcNode
	for _, node := range m.Graph.Funcs {
		if desc, pos, ok := directOutputSink(node); ok {
			sinks[node.Fn] = &taint{src: desc, srcPos: pos}
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		callee := queue[0]
		queue = queue[1:]
		for _, caller := range m.Graph.Callers[callee.Fn] {
			if sinks[caller.Fn] != nil {
				continue
			}
			sinks[caller.Fn] = &taint{
				src:    sinks[callee.Fn].src,
				srcPos: sinks[callee.Fn].srcPos,
				via:    callee.Fn,
			}
			queue = append(queue, caller)
		}
	}
	return sinks
}

// directOutputSink reports whether node's body performs observable
// output itself: fmt printing, Write*/Encode on a receiver that is not
// function-local (a parameter, field or captured writer outlives the
// call, so per-call ordering is observable), or a mutating ledger/obs
// method.
func directOutputSink(node *funcNode) (string, token.Pos, bool) {
	if node.Decl.Body == nil {
		return "", token.NoPos, false
	}
	info := node.Pkg.Info
	var desc string
	var at token.Pos
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if desc != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if name, ok := pkgFuncRef(info, sel, "fmt"); ok {
			switch name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				desc, at = "fmt."+name, call.Pos()
				return false
			}
		}
		switch sel.Sel.Name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			// Writes to writers created inside this function (a local
			// strings.Builder, say) are invisible to callers unless the
			// result escapes — which the caller-side maprange check
			// already covers via return-value appends.
			if root := rootIdent(sel.X); root != nil &&
				declaredWithin(info, root, node.Decl) && !isParam(info, root, node.Decl) {
				return true
			}
			desc, at = sel.Sel.Name+" call", call.Pos()
			return false
		}
		if mutatingSinkMethods[sel.Sel.Name] {
			recv := info.TypeOf(sel.X)
			if _, ok := namedFrom(recv, "internal/ledger"); ok {
				desc, at = "energy-ledger "+sel.Sel.Name, call.Pos()
				return false
			}
			if _, ok := namedFrom(recv, "internal/obs"); ok {
				desc, at = "obs "+sel.Sel.Name, call.Pos()
				return false
			}
		}
		return true
	})
	return desc, at, desc != ""
}

// isParam reports whether id resolves to a parameter (or receiver) of
// the enclosing declaration.
func isParam(info *types.Info, id *ast.Ident, decl *ast.FuncDecl) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || decl.Body == nil {
		return false
	}
	// Parameters are declared between the func keyword and the body.
	return obj.Pos() >= decl.Pos() && obj.Pos() < decl.Body.Pos()
}

// mapRangeSinkFindings reports map ranges whose bodies call functions
// summarized as output sinks — the interprocedural completion of the
// file-local maprange analyzer.
func (m *module) mapRangeSinkFindings() []Finding {
	sinks := m.sinkSummaries()
	var findings []Finding
	for _, node := range m.Graph.Funcs {
		if node.Decl.Body == nil {
			continue
		}
		info := node.Pkg.Info
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			var sunk *taint
			var sunkFn *types.Func
			ast.Inspect(rng.Body, func(b ast.Node) bool {
				if sunk != nil {
					return false
				}
				call, ok := b.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(info, call)
				if callee == nil || callee == node.Fn {
					return true
				}
				if s := sinks[callee]; s != nil {
					sunk, sunkFn = s, callee
					return false
				}
				return true
			})
			if sunk == nil {
				return true
			}
			if m.suppressedAt(rng.Pos(), "maprange") {
				return true
			}
			pos := m.Fset.Position(rng.Pos())
			findings = append(findings, Finding{
				File:  pos.Filename,
				Line:  pos.Line,
				Col:   pos.Column,
				Check: "maprange",
				Msg: fmt.Sprintf("map iteration order is nondeterministic but this loop calls "+
					"a helper that performs observable output (call chain: %s); "+
					"iterate over sorted keys instead", m.chain(sinks, sunkFn)),
			})
			return true
		})
	}
	return findings
}
