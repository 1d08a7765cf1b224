package analysis

import (
	"fmt"
	"go/ast"
)

// testHooks are exported only so that another package's tests can reach
// them: internal/exec's ForceLanes pins every fan-out's width and
// HelperTokens reads the helper pool, both for the lane parity and pool
// tests in pkg/mocha. W comes from the process (DESIGN §10.1), so no
// program code may set it. internal/storage's PoisonScans overwrites
// every scanned record once the next is asked for, for the readers'
// ownership tests in internal/dap.
var testHooks = map[string]bool{"ForceLanes": true, "HelperTokens": true, "PoisonScans": true}

// TestHooks reports every use of a test hook outside a _test.go file;
// the hook's own declaration is not a use.
//
// Like the other checks this is purely syntactic and skips tests.
func TestHooks(root string) ([]Finding, error) {
	files, err := parseTree(root)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pf := range files {
		decl := make(map[*ast.Ident]bool)
		for _, d := range pf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				decl[fd.Name] = true
			}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && testHooks[id.Name] && !decl[id] {
				findings = append(findings, Finding{Pos: pf.fset.Position(id.Pos()), Check: "testhooks",
					Msg: fmt.Sprintf("%s is a test hook; only _test.go files may use it", id.Name)})
			}
			return true
		})
	}
	return findings, nil
}
