package lint

import "testing"

// BenchmarkLintModule measures one full-module analysis — discovery,
// parse, type-check, the per-package analyzer suite, and the
// interprocedural call-graph pass — i.e. the wall time every `make
// lint` pays. One iteration is one cold run (no loader reuse);
// bench-diff takes the min of -count runs to shed scheduler noise.
func BenchmarkLintModule(b *testing.B) {
	root, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.LoadModule()
		if err != nil {
			b.Fatal(err)
		}
		findings := NewRunner().RunModule(pkgs, l.Fset, root)
		if len(findings) != 0 {
			b.Fatalf("module not lint-clean: %v", findings)
		}
	}
}
