package beesim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUncalledExports fails when a package under internal/ exports a
// function or type that no code outside that package references: the
// module's other packages, their tests, cmd/, examples/ and the nested
// _e2ebench module all count as outside. An exported type also stays
// when a live exported declaration of its own package mentions it (a
// result type a caller only reaches through inference). A blank
// assignment such as `_ = pkg.Name` keeps nothing alive. Methods and
// constants are not checked.
func TestNoUncalledExports(t *testing.T) {
	const module = "beesim"
	fset := token.NewFileSet()
	type pkgFile struct {
		dir  string
		file *ast.File
	}
	var files []pkgFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, pkgFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// decls[dir][name] lists the exported names that the declaration
	// `name` mentions in its signature or type definition; for a type,
	// the signatures of its exported methods count too.
	decls := map[string]map[string][]string{}
	var order []string // "dir.name", the candidates in walk order
	mentions := func(n ast.Node) []string {
		var out []string
		if n == nil {
			return nil
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // another package's name
			case *ast.Ident:
				if n.IsExported() {
					out = append(out, n.Name)
				}
			}
			return true
		})
		return out
	}
	for _, pf := range files {
		if !strings.HasPrefix(pf.dir, "internal/") {
			continue
		}
		m := decls[pf.dir]
		if m == nil {
			m = map[string][]string{}
			decls[pf.dir] = m
		}
		test := strings.HasSuffix(fset.Position(pf.file.Pos()).Filename, "_test.go")
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					// A method's signature keeps its types alive
					// whenever its receiver type is alive.
					if recv := receiverName(d.Recv.List[0].Type); recv != "" && d.Name.IsExported() && !test {
						m[recv] = append(m[recv], mentions(d.Type)...)
					}
					continue
				}
				if d.Name.IsExported() && !test {
					m[d.Name.Name] = append(m[d.Name.Name], mentions(d.Type)...)
					order = append(order, pf.dir+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE || test {
					continue
				}
				for _, s := range d.Specs {
					ts := s.(*ast.TypeSpec)
					if ts.Name.IsExported() {
						m[ts.Name.Name] = append(m[ts.Name.Name], mentions(ts.Type)...)
						order = append(order, pf.dir+"."+ts.Name.Name)
					}
				}
			}
		}
	}

	// Every selector pkg.Name in a file of another directory marks
	// Name live, unless the selector only feeds a blank assignment.
	live := map[string]bool{}
	for _, pf := range files {
		imports := map[string]string{}
		for _, imp := range pf.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, module+"/internal/") {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(path, module+"/")
		}
		if len(imports) == 0 {
			continue
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			if blankOnly(n) {
				return false
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if dir, ok := imports[x.Name]; ok && dir != pf.dir {
					live[dir+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	// Types mentioned by live declarations of their own package are live.
	var work []string
	for k := range live {
		work = append(work, k)
	}
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		dot := strings.LastIndex(k, ".")
		dir := k[:dot]
		for _, name := range decls[dir][k[dot+1:]] {
			if _, declared := decls[dir][name]; declared && !live[dir+"."+name] {
				live[dir+"."+name] = true
				work = append(work, dir+"."+name)
			}
		}
	}

	var dead []string
	for _, k := range order {
		if !live[k] {
			dead = append(dead, k)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside their package "+
			"(delete them, or unexport them if the package uses them):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// receiverName returns the type name of a method receiver.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// blankOnly reports whether n assigns only to the blank identifier, as
// in `_ = pkg.Name` or `var _ = pkg.Name`.
func blankOnly(n ast.Node) bool {
	var lhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs = n.Lhs
	case *ast.ValueSpec:
		for _, id := range n.Names {
			lhs = append(lhs, id)
		}
		if n.Type != nil {
			return false
		}
	default:
		return false
	}
	for _, e := range lhs {
		if id, ok := e.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
