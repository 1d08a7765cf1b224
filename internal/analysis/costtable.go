package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// CostTable keeps per-byte CPU costs in one place: outside the operator
// catalogs (internal/ops holds the catalog's per-operator statistics;
// examples/ mirrors them for user-defined operators), no composite
// literal assigns a raw numeric literal to a CompCostPerByte:/
// CPUCostPerByte: field and no CompMS call passes a numeric literal cost
// — per-byte costs in planner code must flow through named constants or
// the catalog. The MVM's own weights live in its instruction table, which
// internal/vm's TestInstructionTable holds complete.
//
// Like the other checks this is purely syntactic and skips tests.
func CostTable(root string) ([]Finding, error) {
	files, err := parseTree(root)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pf := range files {
		slash := filepath.ToSlash(pf.path)
		if strings.Contains(slash, "internal/ops/") || strings.Contains(slash, "examples/") {
			continue
		}
		report := func(pos token.Pos, msg string) {
			findings = append(findings, Finding{Pos: pf.fset.Position(pos), Check: "costtable", Msg: msg})
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := e.Key.(*ast.Ident); ok &&
					(key.Name == "CompCostPerByte" || key.Name == "CPUCostPerByte") &&
					isNumericLit(e.Value) {
					report(e.Pos(), fmt.Sprintf("raw numeric %s outside the operator catalog — use a named constant", key.Name))
				}
			case *ast.CallExpr:
				if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "CompMS" &&
					len(e.Args) == 3 && isNumericLit(e.Args[1]) {
					report(e.Pos(), "raw numeric per-byte cost passed to CompMS — use a named constant or catalog definition")
				}
			}
			return true
		})
	}
	return findings, nil
}

// isNumericLit reports whether an expression is a bare (possibly
// negated) integer or float literal.
func isNumericLit(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && (lit.Kind == token.INT || lit.Kind == token.FLOAT)
}
