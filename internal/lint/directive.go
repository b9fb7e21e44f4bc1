package lint

// Suppression directives. A finding is a conversation between the
// linter and the author; //beelint:allow is the author's documented
// side of it:
//
//	//beelint:allow <check> <reason...>
//
// Placed in a file's header (any comment ending on or before the
// package clause's line), the directive suppresses <check> for the
// whole file. Placed anywhere else, it suppresses <check> on its own
// line and on the line immediately below — so it can trail the
// offending statement or sit on its own line above it.
//
// The reason is mandatory: a suppression without one, or one naming an
// unknown check, is itself reported (check "directive") and cannot be
// suppressed. That keeps every escape hatch auditable with
// `grep -rn beelint:allow`.

import (
	"go/token"
	"strconv"
	"strings"
)

const directivePrefix = "//beelint:allow"

// suppressor indexes the parsed directives of one package.
type suppressor struct {
	// file-level: file -> set of allowed checks
	file map[string]map[string]bool
	// line-level: file -> line -> set of allowed checks
	line map[string]map[int]map[string]bool
}

func (s *suppressor) suppressed(f Finding) bool {
	if f.Check == "directive" {
		return false
	}
	if checks, ok := s.file[f.File]; ok && checks[f.Check] {
		return true
	}
	lines := s.line[f.File]
	if lines == nil {
		return false
	}
	// A directive covers its own line and the next one.
	return lines[f.Line][f.Check] || lines[f.Line-1][f.Check]
}

// parseDirective classifies one comment's text as a //beelint:allow
// directive against the known check set. It returns the allowed check
// name when the directive is well-formed (ok true); a non-empty
// problem when the text is a malformed directive that deserves a
// "directive" finding; and ("", false, "") when the text is not a
// beelint directive at all. Exported for the fuzz harness: the parser
// must hold these invariants (and not panic) on arbitrary input.
func parseDirective(text string, known map[string]bool) (check string, ok bool, problem string) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", false, ""
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		// e.g. //beelint:allowance — not ours.
		return "", false, ""
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false, "malformed //beelint:allow: missing check name and reason"
	}
	if !known[fields[0]] {
		return "", false, "//beelint:allow names unknown check " + strconv.Quote(fields[0])
	}
	if len(fields) < 2 {
		return "", false, "//beelint:allow " + fields[0] + ": a reason is mandatory"
	}
	return fields[0], true, ""
}

// parseDirectives scans every comment in the package for
// //beelint:allow directives, returning the suppression index and any
// findings about malformed directives.
func parseDirectives(pkg *Package, fset *token.FileSet) (*suppressor, []Finding) {
	sup := &suppressor{
		file: make(map[string]map[string]bool),
		line: make(map[string]map[int]map[string]bool),
	}
	known := analyzerNames()
	var findings []Finding
	for _, f := range pkg.Files {
		pkgLine := fset.Position(f.Package).Line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check, ok, problem := parseDirective(c.Text, known)
				if !ok && problem == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				if problem != "" {
					findings = append(findings, Finding{
						File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Check: "directive", Msg: problem,
					})
					continue
				}
				endLine := fset.Position(c.End()).Line
				if endLine <= pkgLine {
					set := sup.file[pos.Filename]
					if set == nil {
						set = make(map[string]bool)
						sup.file[pos.Filename] = set
					}
					set[check] = true
					continue
				}
				lines := sup.line[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					sup.line[pos.Filename] = lines
				}
				set := lines[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[pos.Line] = set
				}
				set[check] = true
			}
		}
	}
	return sup, findings
}
