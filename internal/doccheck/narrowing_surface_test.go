package doccheck

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// sizedInts are the integer types narrower than int (64 bits wherever
// this model runs): a conversion into one can drop bits.
var sizedInts = map[string]bool{
	"int8": true, "int16": true, "int32": true,
	"uint8": true, "uint16": true, "uint32": true, "byte": true,
}

// narrowingReasons are why a conversion into a sized integer type may
// drop no bit that matters: it builds a byte pattern or table index whose
// wrap is intended (pattern), a check elsewhere keeps the value in range
// (bounded, naming the check), or it fills a wire field whose full-width
// round trip is a test (wire, naming the test).
var narrowingReasons = map[string]bool{"pattern": true, "bounded": true, "wire": true}

// narrowings counts, per "file func type" (file below internal/, func as
// Type.Method for a method, "-" outside any function), the conversions
// into a type of sizedInts in non-test Go under internal/ whose argument
// is not a constant. An argument is constant when it is built only of
// literals, constants its package (or the internal package it names)
// declares, and conversions of those.
func narrowings(t *testing.T, root string) map[string]int {
	t.Helper()
	type file struct {
		rel string
		f   *ast.File
	}
	var files []file
	consts := map[string]map[string]bool{} // package name -> constant names
	parseInternal(t, root, func(rel string, f *ast.File) {
		files = append(files, file{rel, f})
		names := consts[f.Name.Name]
		if names == nil {
			names = map[string]bool{"true": true, "false": true, "iota": true}
			consts[f.Name.Name] = names
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GenDecl); ok && g.Tok == token.CONST {
				for _, s := range g.Specs {
					for _, id := range s.(*ast.ValueSpec).Names {
						names[id.Name] = true
					}
				}
			}
			return true
		})
	})

	found := map[string]int{}
	for _, fl := range files {
		pkg := fl.f.Name.Name
		var constant func(e ast.Expr) bool
		constant = func(e ast.Expr) bool {
			switch e := e.(type) {
			case *ast.BasicLit:
				return true
			case *ast.Ident:
				return consts[pkg][e.Name]
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				return ok && consts[x.Name][e.Sel.Name]
			case *ast.ParenExpr:
				return constant(e.X)
			case *ast.UnaryExpr:
				return constant(e.X)
			case *ast.BinaryExpr:
				return constant(e.X) && constant(e.Y)
			case *ast.CallExpr:
				fun, ok := e.Fun.(*ast.Ident)
				return ok && sizedInts[fun.Name] && len(e.Args) == 1 && constant(e.Args[0])
			}
			return false
		}
		for _, d := range fl.f.Decls {
			fn := "-"
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil {
					fn = recvTypeName(fd.Recv.List[0].Type) + "." + fn
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if typ, ok := call.Fun.(*ast.Ident); ok && sizedInts[typ.Name] && !constant(call.Args[0]) {
					found[fl.rel+" "+fn+" "+typ.Name]++
				}
				return true
			})
		}
	}
	return found
}

// testFuncs returns the names of the Test and Fuzz functions in the
// repository's test files, outside hidden directories.
func testFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	re := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range re.FindAllSubmatch(src, -1) {
			names[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// A conversion into a sized integer type truncates silently, which is how
// a one-byte pid on the wire once sent a notification to the wrong
// sender. Every such conversion of a non-constant under internal/ is
// listed in testdata/narrowing.txt, one line per conversion, as "file func
// type reason why": reason is pattern, bounded (why names the check) or
// wire (why names the round-trip test, which must exist). A new one fails
// here until its line says why it drops nothing.
func TestNarrowingSurface(t *testing.T) {
	root := filepath.Join("..", "..")
	found := narrowings(t, root)
	data, err := os.ReadFile(filepath.Join("testdata", "narrowing.txt"))
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(t, root)
	listed := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || !narrowingReasons[f[3]] {
			t.Errorf("narrowing.txt: %q is not \"file func type pattern|bounded|wire why\"", line)
			continue
		}
		if f[3] == "wire" && !tests[f[4]] {
			t.Errorf("narrowing.txt: %q names %s, which is no test", line, f[4])
		}
		listed[strings.Join(f[:3], " ")]++
	}
	var keys []string
	for k := range found {
		keys = append(keys, k)
	}
	for k := range listed {
		if _, ok := found[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += found[k]
		if found[k] != listed[k] {
			t.Errorf("%s: %d conversions of a non-constant, %d lines in testdata/narrowing.txt", k, found[k], listed[k])
		}
	}
	t.Logf("%d conversions into a sized integer type under internal/", total)
}
