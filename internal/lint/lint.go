// Package lint is beelint: a static analyzer suite that enforces the
// simulator's determinism and unit-safety invariants.
//
// The reproduction's whole value rests on byte-deterministic,
// energy-conserving simulation — equal seeds must yield byte-identical
// traces, metrics and ledgers, and the conservation auditor must
// balance to the joule. Those properties are easy to break with code
// that compiles fine: a time.Now in an event handler, a map iteration
// feeding an export, a Joules laundered through float64 and added to
// Watts. beelint turns each of those into a build failure.
//
// The suite is pure standard library (go/parser + go/types + a source
// importer); it type-checks every package in the module and runs nine
// analyzers:
//
//	walltime      wall-clock reads outside real-I/O code
//	unseededrand  math/rand and crypto/rand imports outside internal/rng
//	maprange      map iteration feeding slices, output or the ledger
//	unitcast      float64 casts mixing distinct units types, and bare
//	              constants passed where a units type is expected
//	gostmt        goroutines outside internal/parallel, and concurrency
//	              (goroutines or parallel.* calls) inside DES handlers
//	accumfloat    naive += Joules accumulation in loops
//	sharedcapture parallel.Map task closures writing captured state
//	exhaustive    non-exhaustive switches over local enum types
//	errdrop       discarded errors on the ledger/store write path
//
// On top of the per-package passes, RunModule's interprocedural mode
// (interproc.go) builds a module-wide call graph and traces
// walltime/unseededrand/maprange violations through helper functions
// and across package boundaries, reporting the first unannotated
// cross-package caller with the full call chain. Some findings carry
// mechanical fixes (fix.go) applied by beelint -fix.
//
// Findings can be suppressed — with a mandatory reason — by
// //beelint:allow directives (see directive.go). docs/LINTING.md is the
// user-facing reference.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one reported violation.
type Finding struct {
	// File is the path as recorded in the fileset (absolute for module
	// loads), Line/Col the 1-based position.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Check is the analyzer name ("walltime", ...) or "directive" for
	// malformed suppression directives.
	Check string `json:"check"`
	// Msg is the human-readable diagnosis.
	Msg string `json:"msg"`
	// Fixable reports whether Fix carries a mechanical rewrite.
	Fixable bool `json:"fixable,omitempty"`
	// Fix is the suggested rewrite, applied by beelint -fix.
	Fix *Fix `json:"-"`
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Msg)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	// Doc is a one-line description (shown by beelint -help and in
	// docs/LINTING.md).
	Doc string
	Run func(*Pass)
}

// Pass is the per-package context handed to an analyzer.
type Pass struct {
	Pkg  *Package
	Fset *token.FileSet

	findings *[]Finding
	check    string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:  position.Filename,
		Line:  position.Line,
		Col:   position.Column,
		Check: p.check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// ReportFixf records a finding at pos carrying a mechanical rewrite
// for beelint -fix. A nil fix degrades to a plain Reportf.
func (p *Pass) ReportFixf(pos token.Pos, fix *Fix, format string, args ...any) {
	p.Reportf(pos, format, args...)
	if fix != nil {
		f := &(*p.findings)[len(*p.findings)-1]
		f.Fixable = true
		f.Fix = fix
	}
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerWalltime,
		analyzerUnseededRand,
		analyzerMapRange,
		analyzerUnitCast,
		analyzerGoStmt,
		analyzerAccumFloat,
		analyzerSharedCapture,
		analyzerExhaustive,
		analyzerErrDrop,
	}
}

// analyzerNames returns the known check names, including the implicit
// "directive" check, for validating suppression directives.
func analyzerNames() map[string]bool {
	names := map[string]bool{"directive": true}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// Runner applies a set of analyzers to packages and filters the
// findings through the packages' suppression directives.
type Runner struct {
	Analyzers []*Analyzer
}

// NewRunner returns a runner over the full suite.
func NewRunner() *Runner { return &Runner{Analyzers: Analyzers()} }

// RunPackage runs every analyzer over one package, validates the
// package's //beelint:allow directives, applies suppressions, and
// returns the surviving findings sorted by position.
func (r *Runner) RunPackage(pkg *Package, fset *token.FileSet) []Finding {
	var findings []Finding
	for _, a := range r.Analyzers {
		pass := &Pass{Pkg: pkg, Fset: fset, findings: &findings, check: a.Name}
		a.Run(pass)
	}
	sup, directiveFindings := parseDirectives(pkg, fset)
	findings = append(findings, directiveFindings...)
	kept := findings[:0]
	for _, f := range findings {
		if !sup.suppressed(f) {
			kept = append(kept, f)
		}
	}
	return SortFindings(kept)
}

// ModuleOptions steers RunModule.
type ModuleOptions struct {
	// Interprocedural enables the module-wide call-graph pass
	// (cross-package taint and sink summaries). Disabling it restores
	// the v1 file-local behavior — useful for measuring exactly what
	// the whole-program analysis buys.
	Interprocedural bool
}

// RunModule runs the per-package suite over every package and then, if
// enabled, the interprocedural pass over the whole set. root is the
// directory chain positions inside messages are rendered relative to.
func (r *Runner) RunModule(pkgs []*Package, fset *token.FileSet, root string, opts ModuleOptions) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		all = append(all, r.RunPackage(pkg, fset)...)
	}
	if opts.Interprocedural {
		all = append(all, NewModule(pkgs, fset, root).InterproceduralFindings()...)
	}
	return SortFindings(all)
}

// SortFindings orders findings by (file, line, col, check, msg) so the
// linter's output — text or JSON — is byte-stable across runs.
func SortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	return fs
}
