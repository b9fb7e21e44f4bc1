package lint

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzLintDirective hammers the //beelint:allow parser with arbitrary
// comment text. The parser is the one piece of beelint that reads
// author-controlled free text, so it must never panic and must hold
// its classification invariants on any input: a well-formed directive
// names a known check and carries no problem; a malformed one carries
// a problem and no check; anything else is silently not a directive.
func FuzzLintDirective(f *testing.F) {
	seeds := []string{
		"//beelint:allow walltime real service uptime anchor",
		"//beelint:allow errdrop best-effort flush on shutdown",
		"//beelint:allow walltime",
		"//beelint:allow",
		"//beelint:allow  ",
		"//beelint:allow unknowncheck some reason",
		"//beelint:allowance is a different word",
		"//beelint:allow\twalltime\ttabbed reason",
		"// beelint:allow walltime spaced prefix is not a directive",
		"/*beelint:allow walltime block*/",
		"//beelint:allow walltime \x00\xff",
		"//beelint:allow walltime " + strings.Repeat("r", 1<<12),
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	known := analyzerNames()
	f.Fuzz(func(t *testing.T, text string) {
		check, ok, problem := parseDirective(text, known)
		switch {
		case ok:
			if problem != "" {
				t.Fatalf("ok with problem %q for %q", problem, text)
			}
			if !known[check] {
				t.Fatalf("accepted unknown check %q from %q", check, text)
			}
			if !strings.HasPrefix(text, "//beelint:allow") {
				t.Fatalf("accepted non-directive %q", text)
			}
		case problem != "":
			if check != "" {
				t.Fatalf("problem %q but check %q for %q", problem, check, text)
			}
			if !strings.HasPrefix(text, "//beelint:allow") {
				t.Fatalf("diagnosed non-directive %q: %s", text, problem)
			}
			if !utf8.ValidString(problem) && utf8.ValidString(text) {
				t.Fatalf("problem message corrupted UTF-8 for valid input %q", text)
			}
		default:
			if check != "" {
				t.Fatalf("check %q without ok for %q", check, text)
			}
		}
	})
}
