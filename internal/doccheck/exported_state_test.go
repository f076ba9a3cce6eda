package doccheck

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"testing"
)

// An exported package-level variable is state any importer can rewrite,
// which makes two runs in one process depend on each other. The only
// exported variables allowed under internal/ are errors.New sentinels,
// which nothing assigns; a tunable is a constant or a field.
func TestNoExportedState(t *testing.T) {
	parseInternal(t, filepath.Join("..", ".."), func(_ string, f *ast.File) {
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR {
				continue
			}
			for _, s := range g.Specs {
				vs := s.(*ast.ValueSpec)
				for i, n := range vs.Names {
					if n.IsExported() && (i >= len(vs.Values) || !isErrorsNew(vs.Values[i])) {
						t.Errorf("%s.%s is an exported package-level variable: make it a constant, unexport it, or make it an errors.New sentinel",
							f.Name.Name, n.Name)
					}
				}
			}
		}
	})
}

// isErrorsNew reports whether e is a call errors.New(...).
func isErrorsNew(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}
