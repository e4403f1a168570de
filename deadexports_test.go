package udp_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportsFile lists the exported names that only their own package's
// tests name, one per line as "<import path>.<Name>" or, for a method,
// "<import path>.<Recv>.<Name>".
const deadExportsFile = "testdata/dead_exports.txt"

// goFile is one parsed file of the module.
type goFile struct {
	dir  string // slash-separated, relative to the module root ("." for the root)
	test bool
	ast  *ast.File
}

// TestNoNewDeadExports is a ratchet on exported API that nothing uses: it
// lists the exported top-level names and methods declared in non-test
// files of udp and internal/... that no file names except the declaring
// package's own _test.go files, and compares the list with
// deadExportsFile. A new dead name fails, and so does an allowlisted name
// that is live again or gone. Matching is by name only (go/ast, no type
// checking): a top-level name counts as named by a bare identifier in its
// own package or by a selector on its package's import elsewhere; a method
// counts as named by any identifier or selector of its name, and methods
// the standard library calls through its interfaces are not checked.
// benchmark/, cmd/ and examples/ count as references.
func TestNoNewDeadExports(t *testing.T) {
	files := parseModule(t)
	got := deadExports(files)
	want := readAllowlist(t)

	var fresh, stale []string
	for name := range got {
		if !want[name] {
			fresh = append(fresh, name)
		}
	}
	for name := range want {
		if !got[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	for _, name := range fresh {
		t.Errorf("%s is exported but only its own package's tests name it: use it, unexport it or delete it", name)
	}
	for _, name := range stale {
		t.Errorf("%s is listed in %s but is live or gone: remove the line", name, deadExportsFile)
	}
}

// parseModule parses every Go file under the module root, skipping
// testdata and hidden directories.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(p)),
			test: strings.HasSuffix(p, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importPath maps a module-relative directory to its import path.
func importPath(dir string) string {
	if dir == "." {
		return "udp"
	}
	return "udp/" + dir
}

// declares reports whether dir holds a package whose exports are checked.
func declares(dir string) bool { return dir == "." || strings.HasPrefix(dir, "internal/") }

// stdMethods are method names the standard library calls through its own
// interfaces (error, fmt.Stringer, errors.Unwrap, json.Marshaler,
// sort.Interface, heap.Interface, io, http.Handler), which no file of the
// module need name.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// deadExports returns the exported names of the checked packages that no
// file outside their own package's _test.go files names.
func deadExports(files []goFile) map[string]bool {
	type export struct {
		dir, name, key string
		method         bool
	}
	var exports []export
	decl := map[*ast.Ident]bool{}
	for _, f := range files {
		if f.test || !declares(f.dir) {
			continue
		}
		pkg := importPath(f.dir)
		add := func(id *ast.Ident, key string, method bool) {
			if id.IsExported() {
				exports = append(exports, export{f.dir, id.Name, pkg + "." + key, method})
				decl[id] = true
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name, false)
				} else if !stdMethods[d.Name.Name] {
					add(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, true)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						add(sp.Name, sp.Name.Name, false)
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id, id.Name, false)
						}
					}
				}
			}
		}
	}

	// Collect, per file, the bare identifiers and the qualified names it
	// uses; the declaring package's own test files are skipped per export
	// below.
	type refs struct {
		dir       string
		test      bool
		idents    map[string]bool // bare identifiers and selector names
		qualified map[string]bool // "<import path>.<Name>"
	}
	var all []refs
	for _, f := range files {
		r := refs{dir: f.dir, test: f.test, idents: map[string]bool{}, qualified: map[string]bool{}}
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						r.qualified[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !decl[n] {
					r.idents[n.Name] = true
				}
			}
			return true
		})
		all = append(all, r)
	}

	dead := map[string]bool{}
	for _, e := range exports {
		live := false
		for _, r := range all {
			if r.dir == e.dir && r.test {
				continue
			}
			if e.method || r.dir == e.dir {
				live = r.idents[e.name]
			} else {
				live = r.qualified[importPath(e.dir)+"."+e.name]
			}
			if live {
				break
			}
		}
		if !live {
			dead[e.key] = true
		}
	}
	return dead
}

// recvName is the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// readAllowlist reads deadExportsFile, ignoring blank lines and # comments.
func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open(deadExportsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			names[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDeadExportsMatching pins the ratchet's matching rules on small
// synthetic modules, so a change to deadExports that would let a dead
// name through, or flag a live one, fails here rather than as an
// unexplained allowlist diff.
func TestDeadExportsMatching(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string // module-relative path -> source
		want  []string
	}{
		{"named only by its own tests is dead", map[string]string{
			"internal/a/a.go":      "package a\nfunc F() {}\n",
			"internal/a/a_test.go": "package a\nfunc use() { F() }\n",
		}, []string{"udp/internal/a.F"}},
		{"a selector on its import from another package is live", map[string]string{
			"internal/a/a.go": "package a\nfunc F() {}\n",
			"internal/b/b.go": "package b\nimport \"udp/internal/a\"\nfunc use() { a.F() }\n",
		}, nil},
		{"a bare identifier in its own package is live", map[string]string{
			"internal/a/a.go": "package a\nfunc F() {}\nfunc G() { F() }\n",
		}, []string{"udp/internal/a.G"}},
		{"the same name on another package is not a use", map[string]string{
			"internal/a/a.go": "package a\nfunc F() {}\n",
			"internal/c/c.go": "package c\nfunc F() {}\n",
			"internal/b/b.go": "package b\nimport \"udp/internal/c\"\nfunc use() { c.F() }\n",
		}, []string{"udp/internal/a.F"}},
		{"a method is live by any selector of its name", map[string]string{
			"internal/a/a.go": "package a\ntype T struct{}\nfunc (*T) M() {}\nfunc (T) N() {}\n",
			"cmd/x/main.go":   "package main\nimport \"udp/internal/a\"\nfunc main() { var v a.T; v.M() }\n",
		}, []string{"udp/internal/a.T.N"}},
		{"standard interface methods are not checked", map[string]string{
			"internal/a/a.go":     "package a\ntype T struct{}\nfunc (T) String() string { return \"\" }\n",
			"examples/ex/main.go": "package main\nimport alias \"udp/internal/a\"\nvar _ alias.T\n",
		}, nil},
		{"the root package is checked and cmd is not", map[string]string{
			"udp.go":                "package udp\nfunc Exec() {}\nfunc Compile() {}\n",
			"benchmark/bench.go":    "package main\nimport \"udp\"\nvar _ = udp.Exec\n",
			"cmd/unchecked/main.go": "package main\nfunc Unused() {}\n",
		}, []string{"udp.Compile"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []goFile
			for p, src := range tc.files {
				f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, goFile{dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), ast: f})
			}
			var got []string
			for name := range deadExports(files) {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("dead = %q, want %q", got, tc.want)
			}
		})
	}
}
