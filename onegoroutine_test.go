package nssparql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEvaluationStartsNoGoroutine: a query is evaluated on the calling
// goroutine — the servers use their cores across concurrent queries,
// not within one — so the evaluation packages contain no go statement.
// Bringing intra-query parallelism back is a design change to make on
// purpose (DESIGN.md §8 records how it was built and why it went), not
// one to slip in with an operator.
func TestEvaluationStartsNoGoroutine(t *testing.T) {
	for _, dir := range []string{"internal/sparql", "internal/plan", "internal/views"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			src, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement in an evaluation package", fset.Position(g.Pos()))
				}
				return true
			})
		}
		if parsed == 0 {
			t.Errorf("%s: no Go files found", dir)
		}
	}
}
