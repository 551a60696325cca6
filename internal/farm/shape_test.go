package farm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestMasterShape keeps the master a state machine: one method per event
// on the master struct, stepped by a runMaster that is only a loop. A
// function in master.go over 150 lines, a runMaster over 30, or a closure
// inside runMaster fails it.
func TestMasterShape(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "master.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
		if lines > 150 {
			t.Errorf("%s is %d lines, over 150", fn.Name.Name, lines)
		}
		if fn.Recv != nil || fn.Name.Name != "runMaster" {
			continue
		}
		found = true
		if lines > 30 {
			t.Errorf("runMaster is %d lines, over 30", lines)
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				t.Errorf("runMaster defines a closure at %s", fset.Position(n.Pos()))
			}
			return true
		})
	}
	if !found {
		t.Error("master.go has no runMaster")
	}
}
