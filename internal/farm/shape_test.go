package farm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestMasterShape keeps the master and the worker state machines: one
// method per event, stepped by a loop that is only a loop. A function in
// master.go over 150 lines, in worker.go or virtual.go over 60, a
// runMaster over 30, or a closure inside runMaster or the worker's conn
// loop (runWorkerLoop) fails it.
func TestMasterShape(t *testing.T) {
	for _, c := range []struct {
		file, loop string
		most       int
	}{{"master.go", "runMaster", 150}, {"worker.go", "runWorkerLoop", 60}, {"virtual.go", "", 60}} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, c.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := c.loop == ""
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
			if lines > c.most {
				t.Errorf("%s: %s is %d lines, over %d", c.file, fn.Name.Name, lines, c.most)
			}
			if fn.Recv != nil || fn.Name.Name != c.loop {
				continue
			}
			found = true
			if c.loop == "runMaster" && lines > 30 {
				t.Errorf("runMaster is %d lines, over 30", lines)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					t.Errorf("%s defines a closure at %s", c.loop, fset.Position(n.Pos()))
				}
				return true
			})
		}
		if !found {
			t.Errorf("%s has no %s", c.file, c.loop)
		}
	}
}
