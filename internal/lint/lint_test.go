package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture corpus lives under testdata/src/<case>. Each case is a
// self-contained package checked under a synthetic import path, so
// path-suffix exemptions (internal/prof, internal/rng) can be
// exercised without touching real module packages. Expected findings
// are marked in the fixture source with "// want <check>" comments.

var (
	loaderOnce sync.Once
	testLoad   *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		testLoad, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return testLoad
}

func fixtureDir(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("abs: %v", err)
	}
	return abs
}

// runFixture type-checks one fixture package and runs the full
// analyzer suite (including directive validation and suppression).
func runFixture(t *testing.T, l *Loader, name, importPath string) []Finding {
	t.Helper()
	pkg, err := l.Check(fixtureDir(t, name), importPath)
	if err != nil {
		t.Fatalf("check fixture %s: %v", name, err)
	}
	return NewRunner().RunPackage(pkg, l.Fset)
}

// wantComments calls fn with the file base name, 1-based line and the
// text after "// want " of every want comment in the fixture files.
func wantComments(t *testing.T, dir string, fn func(file string, line int, tail string)) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture file: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if _, tail, ok := strings.Cut(line, "// want "); ok {
				fn(e.Name(), i+1, tail)
			}
		}
	}
}

// parseWants reads every fixture file and collects "basename:line: check"
// expectations from trailing "// want <check> [<check>...]" comments.
// A quoted message fragment after the checks is for wantMessages.
func parseWants(t *testing.T, dir string) []string {
	t.Helper()
	var wants []string
	wantComments(t, dir, func(file string, line int, tail string) {
		checks, _, _ := strings.Cut(tail, `"`)
		for _, check := range strings.Fields(checks) {
			wants = append(wants, fmt.Sprintf("%s:%d: %s", file, line, check))
		}
	})
	sort.Strings(wants)
	return wants
}

// wantMessages checks the "// want <check> "<fragment>"" comments: the
// finding of that check on that line must contain the fragment, so a
// fixture can tell two rules of one check apart.
func wantMessages(t *testing.T, dir string, fs []Finding) {
	t.Helper()
	wantComments(t, dir, func(file string, line int, tail string) {
		check, quoted, ok := strings.Cut(tail, `"`)
		if !ok {
			return
		}
		check = strings.TrimSpace(check)
		frag, err := strconv.Unquote(`"` + quoted)
		if err != nil {
			t.Fatalf("%s:%d: bad want message %q: %v", file, line, quoted, err)
		}
		for _, f := range fs {
			if filepath.Base(f.File) == file && f.Line == line && f.Check == check &&
				strings.Contains(f.Msg, frag) {
				return
			}
		}
		t.Errorf("%s:%d: no %s finding says %q", file, line, check, frag)
	})
}

func findingKeys(fs []Finding) []string {
	keys := make([]string, 0, len(fs))
	for _, f := range fs {
		keys = append(keys, fmt.Sprintf("%s:%d: %s", filepath.Base(f.File), f.Line, f.Check))
	}
	sort.Strings(keys)
	return keys
}

func diffKeys(t *testing.T, name string, got, want []string, fs []Finding) {
	t.Helper()
	gotSet := map[string]int{}
	for _, k := range got {
		gotSet[k]++
	}
	wantSet := map[string]int{}
	for _, k := range want {
		wantSet[k]++
	}
	for _, k := range want {
		if gotSet[k] < wantSet[k] {
			t.Errorf("%s: missing expected finding %s", name, k)
			wantSet[k] = gotSet[k]
		}
	}
	for _, k := range got {
		if wantSet[k] < gotSet[k] {
			t.Errorf("%s: unexpected finding %s", name, k)
			gotSet[k] = wantSet[k]
		}
	}
	if t.Failed() {
		for _, f := range fs {
			t.Logf("%s: got %s", name, f)
		}
	}
}

func TestFixtures(t *testing.T) {
	cases := []struct {
		name       string
		importPath string
		// deps are fixture packages checked first so the case's imports
		// resolve from the loader cache (dir then import path).
		deps [][2]string
	}{
		{"walltime", "fixture/walltime", nil},
		{"proffixture", "fixture/internal/prof", nil},
		{"unseededrand", "fixture/unseededrand", nil},
		{"rngself", "fixture/internal/rng", nil},
		{"maprange", "fixture/maprange", nil},
		{"unitcast", "fixture/unitcast", nil},
		{"gostmt", "fixture/gostmt", nil},
		{"parallelpkg", "fixture/internal/parallel", nil},
		{"accumfloat", "fixture/accumfloat", nil},
		{"suppress", "fixture/suppress", nil},
		{"suppressfile", "fixture/suppressfile", nil},
		{"sharedcapture", "fixture/sharedcapture", nil},
		{"exhaustive", "fixture/exhaustive", nil},
		{"ledgerpkg", "fixture/internal/ledger", nil},
		{"errdrop", "fixture/errdrop", [][2]string{{"ledgerpkg", "fixture/internal/ledger"}}},
	}
	l := sharedLoader(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, d := range tc.deps {
				if _, err := l.Check(fixtureDir(t, d[0]), d[1]); err != nil {
					t.Fatalf("check dep %s: %v", d[0], err)
				}
			}
			fs := runFixture(t, l, tc.name, tc.importPath)
			diffKeys(t, tc.name, findingKeys(fs), parseWants(t, fixtureDir(t, tc.name)), fs)
			wantMessages(t, fixtureDir(t, tc.name), fs)
		})
	}
}

// interprocFixtures checks the multi-package interprocedural fixture
// tree, deepest-first, and returns the packages.
func interprocFixtures(t *testing.T, l *Loader) []*Package {
	t.Helper()
	var pkgs []*Package
	for _, d := range [][2]string{
		{"interproc/prof", "fixture/ip/internal/prof"},
		{"interproc/mid", "fixture/ip/mid"},
		{"interproc/randsrc", "fixture/ip/randsrc"},
		{"interproc/sink", "fixture/ip/sink"},
		{"interproc/sim", "fixture/ip/sim"},
	} {
		pkg, err := l.Check(fixtureDir(t, d[0]), d[1])
		if err != nil {
			t.Fatalf("check %s: %v", d[0], err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestInterprocedural pins the module-wide pass end to end: the
// laundered wall-clock read, the audited randomness source, and the
// transitive print sink are each invisible to the file-local pass and
// reported — with full call-chain traces — by the interprocedural one.
func TestInterprocedural(t *testing.T) {
	l := sharedLoader(t)
	pkgs := interprocFixtures(t, l)
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	// A: file-local only. Every audited hop is quiet, so the corpus is
	// clean — proving the findings below need the whole-program view.
	for _, pkg := range pkgs {
		for _, f := range NewRunner().RunPackage(pkg, l.Fset) {
			t.Errorf("file-local pass should be clean, got %s", f)
		}
	}

	// B: the whole module, interprocedural pass included. The wants in
	// interproc/sim fire.
	full := NewRunner().RunModule(pkgs, l.Fset, root)
	var want []string
	for _, dir := range []string{"interproc/prof", "interproc/mid", "interproc/randsrc", "interproc/sink", "interproc/sim"} {
		want = append(want, parseWants(t, fixtureDir(t, dir))...)
	}
	sort.Strings(want)
	diffKeys(t, "interproc", findingKeys(full), want, full)

	// The walltime finding must carry the two-hop chain down to the
	// clock read.
	const chain = "sim.Run -> mid.Helper -> prof.Stamp -> time.Now"
	found := false
	for _, f := range full {
		if f.Check == "walltime" && strings.Contains(f.Msg, chain) {
			found = true
		}
	}
	if !found {
		t.Errorf("no walltime finding carries chain %q; findings: %v", chain, full)
	}
}

// TestMalformedDirectives pins the directive contract: a directive
// without a reason or with an unknown check is itself a finding, and
// suppresses nothing. Expectations are spelled out by hand because the
// malformed directives occupy the comment slot a want marker would use.
func TestMalformedDirectives(t *testing.T) {
	l := sharedLoader(t)
	fs := runFixture(t, l, "suppressbad", "fixture/suppressbad")
	want := []string{
		"suppressbad.go:8: directive",  // missing reason
		"suppressbad.go:8: walltime",   // ...so the finding survives
		"suppressbad.go:12: directive", // unknown check name
		"suppressbad.go:15: directive", // bare directive, no reason
	}
	sort.Strings(want)
	diffKeys(t, "suppressbad", findingKeys(fs), want, fs)
}

// TestFindingsDeterministic re-runs the whole fixture corpus on a
// fresh loader and requires byte-identical JSON, the same contract
// cmd/beelint -json exposes.
func TestFindingsDeterministic(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	run := func() []byte {
		l, err := NewLoader(root)
		if err != nil {
			t.Fatalf("loader: %v", err)
		}
		var all []Finding
		for _, tc := range []struct{ name, path string }{
			{"walltime", "fixture/walltime"},
			{"unseededrand", "fixture/unseededrand"},
			{"maprange", "fixture/maprange"},
			{"unitcast", "fixture/unitcast"},
			{"gostmt", "fixture/gostmt"},
			{"accumfloat", "fixture/accumfloat"},
			{"suppressbad", "fixture/suppressbad"},
		} {
			all = append(all, runFixture(t, l, tc.name, tc.path)...)
		}
		all = sortFindings(all)
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("findings JSON differs between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestModuleClean runs the full analyzer suite — interprocedural pass
// included — over the real module: the tree must stay free of
// unsuppressed findings, which is the same bar make verify enforces
// through cmd/beelint.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is slow; run without -short")
	}
	l := sharedLoader(t)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	all := NewRunner().RunModule(pkgs, l.Fset, l.Root)
	for _, f := range all {
		t.Errorf("module not lint-clean: %s", f)
	}
}

// TestFixCorpus pins the -fix contract on the golden corpus: every
// corpus finding carries a fix, the fixed bytes match the .golden
// files, the fixed package re-lints clean, and a second fix pass has
// nothing to do (idempotency).
func TestFixCorpus(t *testing.T) {
	l := sharedLoader(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "fix", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Check(dir, "beesim/fixcorpus")
	if err != nil {
		t.Fatalf("check corpus: %v", err)
	}
	findings := NewRunner().RunPackage(pkg, l.Fset)
	if len(findings) != 3 {
		t.Fatalf("corpus findings = %d, want 3: %v", len(findings), findings)
	}
	for _, f := range findings {
		if !f.Fixable || f.Fix == nil {
			t.Errorf("corpus finding not fixable: %s", f)
		}
	}

	fx := &Fixer{Fset: l.Fset}
	results, err := fx.Apply(findings)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("fixed files = %d, want 3", len(results))
	}
	fixedDir := t.TempDir()
	for _, r := range results {
		name := filepath.Base(r.File)
		golden := r.File + ".golden"
		if os.Getenv("BEELINT_UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, r.Content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (set BEELINT_UPDATE_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(r.Content, want) {
			t.Errorf("%s: fixed output differs from golden:\n%s", name, r.Content)
		}
		if err := os.WriteFile(filepath.Join(fixedDir, name), r.Content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Round trip: the fixed corpus type-checks, re-lints clean, and
	// offers no further fixes.
	fixedPkg, err := l.Check(fixedDir, "beesim/fixcorpusfixed")
	if err != nil {
		t.Fatalf("fixed corpus does not type-check: %v", err)
	}
	refind := NewRunner().RunPackage(fixedPkg, l.Fset)
	for _, f := range refind {
		t.Errorf("fixed corpus not lint-clean: %s", f)
	}
	again, err := fx.Apply(refind)
	if err != nil {
		t.Fatalf("second apply: %v", err)
	}
	if len(again) != 0 {
		t.Errorf("second fix pass rewrote %d file(s); -fix must be idempotent", len(again))
	}
}
