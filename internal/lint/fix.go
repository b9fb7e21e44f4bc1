package lint

// Autofix. A finding whose rewrite is purely mechanical — no judgment,
// no behavior choice — can carry a Fix: a set of textual edits plus
// the imports the rewritten code needs. beelint -fix applies them,
// reformats, and writes the files back; the contract (pinned by the
// golden corpus in testdata) is that fixing is idempotent and the
// fixed source is lint-clean for the originating check.
//
// Three rewrites ship:
//
//	maprange     collect keys, sort, iterate the sorted slice
//	accumfloat   wrap the loop in a stats.Kahan accumulator
//	unseededrand swap rand.New(rand.NewSource(s)) for internal/rng
//
// Edits are byte-offset replacements against the file as parsed, so
// applying is order-independent and overlap is detectable; the result
// runs through go/format for canonical layout.

import (
	"fmt"
	"go/format"
	"go/token"
	"os"
	"sort"
	"strings"
)

// FixEdit is one textual replacement: source bytes [Pos, End) become
// New. Pos == End inserts.
type FixEdit struct {
	Pos, End token.Pos
	New      string
}

// FixImport is an import the rewritten file must carry.
type FixImport struct {
	// Path is the import path; the package's default name must match
	// the name the rewritten code uses.
	Path string
}

// Fix is a mechanical rewrite attached to a Finding. All edits target
// the finding's file.
type Fix struct {
	Edits   []FixEdit
	Imports []FixImport
}

// Fixer applies fixes to source files.
type Fixer struct {
	Fset *token.FileSet
}

// FixResult reports one rewritten file.
type FixResult struct {
	File    string
	Applied int
	Content []byte
}

// Apply applies the fixes of every fixable finding, returning the
// rewritten files sorted by path. Findings whose edits overlap a fix
// already taken (in sortFindings order) are skipped — the next -fix
// run picks them up once the file has settled.
func (fx *Fixer) Apply(findings []Finding) ([]FixResult, error) {
	type fileState struct {
		edits   []FixEdit
		imports []FixImport
	}
	perFile := make(map[string]*fileState)
	var files []string
	for _, f := range findings {
		if f.Fix == nil {
			continue
		}
		st := perFile[f.File]
		if st == nil {
			st = &fileState{}
			perFile[f.File] = st
			files = append(files, f.File)
		}
		if overlaps(st.edits, f.Fix.Edits) {
			continue
		}
		st.edits = append(st.edits, f.Fix.Edits...)
		st.imports = append(st.imports, f.Fix.Imports...)
	}
	sort.Strings(files)
	var results []FixResult
	for _, file := range files {
		st := perFile[file]
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		out, n, err := fx.applyFile(file, src, st.edits, st.imports)
		if err != nil {
			return nil, fmt.Errorf("lint: fixing %s: %w", file, err)
		}
		results = append(results, FixResult{File: file, Applied: n, Content: out})
	}
	return results, nil
}

// offsets converts a FixEdit to byte offsets within its file.
func (fx *Fixer) offsets(e FixEdit) (int, int) {
	return fx.Fset.Position(e.Pos).Offset, fx.Fset.Position(e.End).Offset
}

// overlaps reports whether any new edit intersects the accepted set.
func overlaps(accepted, next []FixEdit) bool {
	for _, n := range next {
		for _, a := range accepted {
			if n.Pos < a.End && a.Pos < n.End {
				return true
			}
		}
	}
	return false
}

func (fx *Fixer) applyFile(file string, src []byte, edits []FixEdit, imports []FixImport) ([]byte, int, error) {
	sorted := append([]FixEdit(nil), edits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pos > sorted[j].Pos })
	out := append([]byte(nil), src...)
	for _, e := range sorted {
		start, end := fx.offsets(e)
		if start < 0 || end > len(out) || start > end {
			return nil, 0, fmt.Errorf("edit out of range [%d,%d)", start, end)
		}
		out = append(out[:start], append([]byte(e.New), out[end:]...)...)
	}
	var err error
	out, err = insertImports(out, imports)
	if err != nil {
		return nil, 0, err
	}
	out, err = format.Source(out)
	if err != nil {
		return nil, 0, fmt.Errorf("rewritten source does not format: %w", err)
	}
	return out, len(edits), nil
}

// insertImports adds any missing imports as standalone import lines
// directly after the package clause; go/format keeps them stable.
func insertImports(src []byte, imports []FixImport) ([]byte, error) {
	if len(imports) == 0 {
		return src, nil
	}
	text := string(src)
	need := make(map[string]bool)
	var order []string
	for _, imp := range imports {
		if !need[imp.Path] && !strings.Contains(text, `"`+imp.Path+`"`) {
			need[imp.Path] = true
			order = append(order, imp.Path)
		}
	}
	if len(order) == 0 {
		return src, nil
	}
	sort.Strings(order)
	// The package clause ends at the first newline after a "package "
	// at the start of a line (not one inside a doc comment).
	idx := -1
	if strings.HasPrefix(text, "package ") {
		idx = 0
	} else if i := strings.Index(text, "\npackage "); i >= 0 {
		idx = i + 1
	}
	if idx < 0 {
		return nil, fmt.Errorf("no package clause")
	}
	nl := strings.IndexByte(text[idx:], '\n')
	if nl < 0 {
		return nil, fmt.Errorf("unterminated package clause")
	}
	at := idx + nl + 1
	var b strings.Builder
	b.WriteString(text[:at])
	for _, path := range order {
		fmt.Fprintf(&b, "\nimport %q\n", path)
	}
	b.WriteString(text[at:])
	return []byte(b.String()), nil
}
