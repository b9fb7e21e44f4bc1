// Command beelint runs the beesim determinism & unit-safety analyzer
// suite (internal/lint) over the whole module and reports findings.
//
// Usage:
//
//	beelint [-C dir] [-json] [-list] [-fix]
//
// Every package in the module is checked, followed by the module-wide
// interprocedural pass. -fix applies the mechanical rewrites attached
// to fixable findings (sorted map iteration, compensated summation,
// seeded-rng substitution) and reports only what remains.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage
// or load errors. Output order is byte-stable across runs — text and
// -json — so CI diffs are meaningful.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"beesim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("beelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", "", "module root (default: nearest go.mod above the working directory)")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fix := fs.Bool("fix", false, "apply mechanical fixes to fixable findings and report the rest")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: beelint [-C dir] [-json] [-list] [-fix]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "beelint: unexpected argument %q (the whole module is always checked)\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root := *dir
	if root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
		root, err = lint.FindModuleRoot(wd)
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "beelint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "beelint:", err)
		return 2
	}
	findings := lint.NewRunner().RunModule(pkgs, loader.Fset, root)

	if *fix {
		fixer := &lint.Fixer{Fset: loader.Fset}
		results, err := fixer.Apply(findings)
		if err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
		for _, r := range results {
			if err := os.WriteFile(r.File, r.Content, 0o644); err != nil {
				fmt.Fprintln(stderr, "beelint:", err)
				return 2
			}
			if rel, err := filepath.Rel(root, r.File); err == nil {
				fmt.Fprintf(stdout, "beelint: fixed %d issue(s) in %s\n", r.Applied, filepath.ToSlash(rel))
			}
		}
		// Fixed findings are resolved; report what -fix cannot do.
		kept := findings[:0]
		for _, f := range findings {
			if !f.Fixable {
				kept = append(kept, f)
			}
		}
		findings = kept
	}

	// Report module-relative paths: stable regardless of checkout
	// location, and friendlier to read. Every file lies under root, so
	// stripping the common prefix keeps RunModule's order.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil {
			findings[i].File = filepath.ToSlash(rel)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "beelint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "beelint: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
