package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// identSpanRe is an inline code span naming a Go identifier through its
// package: `pkg.Name` or `pkg.Type.Member`, optionally called with no
// arguments (`bench.Run.Summary()`).
var identSpanRe = regexp.MustCompile(`^([a-z]\w*)\.(\w+)(?:\.(\w+))?(?:\(\))?$`)

// parseRepo parses every non-test Go file in the repository and hands
// each to visit with the top-level directory it sits in ("internal",
// "benchmark" (a module of its own), "cmd", or "" for the root package)
// and its slash-separated path below that directory.
func parseRepo(t *testing.T, root string, visit func(tree, rel string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		tree, below, ok := strings.Cut(filepath.ToSlash(rel), "/")
		if !ok {
			tree, below = "", tree
		}
		visit(tree, below, f)
		return nil
	})
	if err != nil {
		t.Fatalf("parsing the repository: %v", err)
	}
}

// parseInternal hands visit every non-test Go file under internal/, with
// its path below internal/.
func parseInternal(t *testing.T, root string, visit func(rel string, f *ast.File)) {
	t.Helper()
	parseRepo(t, root, func(tree, rel string, f *ast.File) {
		if tree == "internal" {
			visit(rel, f)
		}
	})
}

// internalDecls returns, per package name under internal/, the names its
// non-test files declare: each func, type, const, var, method and struct
// field or interface method by its own name, and each method and field
// also as Type.Member — a struct's own, and those it promotes from a type
// it embeds.
func internalDecls(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	decls := make(map[string]map[string]bool)
	type embedding struct{ pkg, outer, inner string }
	var embeds []embedding
	parseInternal(t, root, func(_ string, f *ast.File) {
		names := decls[f.Name.Name]
		if names == nil {
			names = make(map[string]bool)
			decls[f.Name.Name] = names
		}
		member := func(typ, name string) {
			names[name] = true
			names[typ+"."+name] = true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else {
					member(recvTypeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var fields *ast.FieldList
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						if fields == nil {
							continue
						}
						for _, fld := range fields.List {
							if fld.Names == nil {
								embeds = append(embeds, embedding{f.Name.Name, s.Name.Name, recvTypeName(fld.Type)})
							}
							for _, n := range fld.Names {
								member(s.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	})
	for _, e := range embeds {
		names := decls[e.pkg]
		for name := range names {
			if member, ok := strings.CutPrefix(name, e.inner+"."); ok {
				names[e.outer+"."+member] = true
			}
		}
	}
	return decls
}

// recvTypeName strips a method receiver down to its type's name: *T, T[P]
// and *T[P, Q] are all T.
func recvTypeName(e ast.Expr) string {
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

// A doc that points the reader at an identifier the code no longer
// declares is as broken as a dead link. Every inline code span of the
// form `pkg.Name` or `pkg.Type.Member`, where pkg is a package under
// internal/, must name a declaration in that package's non-test files: a
// func, method, type, const, var or field. ROADMAP.md names deleted and
// planned identifiers on purpose.
func TestDocIdentifiersExist(t *testing.T) {
	root := filepath.Join("..", "..")
	decls := internalDecls(t, root)
	for _, doc := range checkedDocs {
		if doc == "ROADMAP.md" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			t.Errorf("%s: listed in checkedDocs but unreadable: %v", doc, err)
			continue
		}
		prose, _ := splitFences(string(data))
		for _, span := range codeSpanRe.FindAllString(prose, -1) {
			m := identSpanRe.FindStringSubmatch(strings.Trim(span, "`"))
			if m == nil || m[3] == "" && (m[2] == "go" || m[2] == "md" || m[2] == "json") {
				continue // not an identifier, or a file name such as coll.go
			}
			names, ok := decls[m[1]]
			if !ok {
				continue // not a package under internal/
			}
			name := m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if !names[name] {
				t.Errorf("%s: %s names nothing package %s declares", doc, span, m[1])
			}
		}
	}
}
