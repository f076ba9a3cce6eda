package doccheck

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// isConfigType reports whether a struct type's name marks it as a
// configuration surface: a *Config, *Options, *Policy or *Limits, or a
// tenant Spec.
func isConfigType(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Policy", "Limits"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return name == "Spec"
}

// configSurface lists, as sorted pkg.Type.Field lines, every exported
// field of every exported configuration struct under internal/.
func configSurface(t *testing.T, root string) []string {
	t.Helper()
	var lines []string
	parseInternal(t, root, func(_ string, f *ast.File) {
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range g.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !isConfigType(ts.Name.Name) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, n := range fld.Names {
						if n.IsExported() {
							lines = append(lines, f.Name.Name+"."+ts.Name.Name+"."+n.Name)
						}
					}
				}
			}
		}
	})
	sort.Strings(lines)
	return lines
}

// Every field of a configuration struct is a knob that tests and sweeps
// must cover, and each independent one doubles the configurations. The
// surface is pinned in testdata/config_surface.txt so that adding (or
// removing) a knob is a visible line in review: update the file in the
// same change.
func TestConfigSurface(t *testing.T) {
	got := configSurface(t, filepath.Join("..", ".."))
	data, err := os.ReadFile(filepath.Join("testdata", "config_surface.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	t.Logf("%d configuration fields under internal/", len(got))

	inWant := make(map[string]bool, len(want))
	for _, w := range want {
		inWant[w] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, g := range got {
		inGot[g] = true
		if !inWant[g] {
			t.Errorf("new configuration field %s: add it to testdata/config_surface.txt, or make it a constant", g)
		}
	}
	for _, w := range want {
		if !inGot[w] {
			t.Errorf("configuration field %s is gone: drop it from testdata/config_surface.txt", w)
		}
	}
}
