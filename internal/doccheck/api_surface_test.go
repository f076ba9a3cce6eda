package doccheck

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names that the standard library calls
// through an interface (errors.Is and Unwrap, fmt's Stringer and error),
// so a method by one of these names has a caller the scan cannot see.
var interfaceMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true, "Is": true}

// apiReasons are the reasons an exported function may stay without a
// production caller: the paper's interface names it, a test harness
// (fault plans, invariant checks) drives it, or benchmark/ calls it.
var apiReasons = map[string]bool{"paper": true, "harness": true, "bench": true}

// identUses counts, per name, the identifiers in non-test Go files that
// are not a declaration's own name (a func's, type's, const's, var's,
// field's or parameter's): production code (internal/, cmd/ and
// the root package) in prod, the benchmark module in bench. It also
// returns each exported func, and each exported method of an exported
// type, declared under internal/, as pkg.Name or pkg.Type.Name, keyed to
// its bare name.
func identUses(t *testing.T, root string) (prod, bench map[string]int, exports map[string]string) {
	t.Helper()
	prod, bench, exports = map[string]int{}, map[string]int{}, map[string]string{}
	parseRepo(t, root, func(tree, _ string, f *ast.File) {
		uses := prod
		if tree == "benchmark" {
			uses = bench
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if tree != "internal" || !n.Name.IsExported() || interfaceMethods[n.Name.Name] {
					break
				}
				key := f.Name.Name + "." + n.Name.Name
				if n.Recv != nil {
					recv := recvTypeName(n.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						break
					}
					key = f.Name.Name + "." + recv + "." + n.Name.Name
				}
				exports[key] = n.Name.Name
			case *ast.TypeSpec:
				declared[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name]++
				}
			}
			return true
		})
	})
	return prod, bench, exports
}

// An exported function that nothing but its tests calls is code kept alive
// for its own sake. Every exported func or method under internal/ whose
// name no production identifier uses must be listed in
// testdata/api_surface.txt as "pkg.[Type.]Name reason", the reason one of
// paper, harness or bench; a bench entry must be named by benchmark/. The
// check goes by name, so it never raises a false alarm; an uncalled
// function that shares its name with a called one goes unflagged.
func TestAPISurface(t *testing.T) {
	prod, bench, exports := identUses(t, filepath.Join("..", ".."))
	data, err := os.ReadFile(filepath.Join("testdata", "api_surface.txt"))
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 || !apiReasons[f[1]] {
			t.Errorf("api_surface.txt: %q is not \"pkg.[Type.]Name paper|harness|bench\"", line)
			continue
		}
		listed[f[0]] = f[1]
	}

	var uncalled []string
	for key, name := range exports {
		if prod[name] == 0 {
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	t.Logf("%d exported functions under internal/ without a production caller", len(uncalled))
	for _, key := range uncalled {
		if _, ok := listed[key]; !ok {
			t.Errorf("%s has no production caller: delete it, or list it in testdata/api_surface.txt with its reason", key)
		}
	}
	for key, reason := range listed {
		name, ok := exports[key]
		switch {
		case !ok:
			t.Errorf("%s is listed in testdata/api_surface.txt but not declared: drop its line", key)
		case prod[name] > 0:
			t.Errorf("%s now has a production caller: drop its line from testdata/api_surface.txt", key)
		case reason == "bench" && bench[name] == 0:
			t.Errorf("%s is listed for bench, but benchmark/ does not name it", key)
		}
	}
}
