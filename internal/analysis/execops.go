package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"mocha/internal/obs"
)

// ExecOps enforces the span-name inventory contract of
// internal/obs/names.go, the companion of ObsMetrics for trace spans —
// the operator names (Op*) and the phase names (Phase*) that together
// are every name a span may carry:
//
//  1. every Op* constant carries an "op:"-prefixed value, and no two
//     constants of either family share a value, so the blocks are an
//     unambiguous vocabulary;
//  2. every constant is referenced somewhere outside package obs, so the
//     vocabulary stays live (a dead name means an operator or phase was
//     removed without retiring its span name);
//  3. every constant is a key of the spanClass table beside them, so no
//     span's duration can go unclassified into the query's breakdown;
//  4. no source file outside package obs spells a span name as a raw
//     string literal: not an "op:"-prefixed one anywhere (the prefix
//     itself is obs.SpanOpPrefix), not a namespaced phase name
//     ("dap:start") anywhere, and no literal at all where a span is
//     named — the first argument of a Begin or Interval call, the Name
//     of an obs.Span literal.
//
// Like the other checks this is purely syntactic and skips tests.
func ExecOps(root string) ([]Finding, error) {
	namesPath := filepath.Join(root, "internal", "obs", "names.go")
	namesFile, err := parseOne(namesPath)
	if err != nil {
		return nil, err
	}
	consts := constStrings(namesFile, "Op")
	if len(consts) == 0 {
		return nil, fmt.Errorf("execops: no Op* constants found in %s", namesPath)
	}
	for name, val := range constStrings(namesFile, "Phase") {
		consts[name] = val
	}
	classed := mapLiteralKeys(namesFile, "spanClass")

	var findings []Finding
	rawSeen := make(map[token.Position]bool) // a literal is reported once, by the most specific rule
	report := func(pos token.Pos, pf parsedFile, format string, args ...any) {
		findings = append(findings, Finding{Pos: pf.fset.Position(pos), Check: "execops", Msg: fmt.Sprintf(format, args...)})
	}
	names := make([]string, 0, len(consts))
	for name := range consts {
		names = append(names, name)
	}
	sort.Strings(names)
	byValue := make(map[string]string) // value -> first const name
	for _, name := range names {
		val := consts[name]
		if strings.HasPrefix(name, "Op") && !strings.HasPrefix(val, obs.SpanOpPrefix) {
			report(namesFile.file.Pos(), namesFile, "operator constant obs.%s = %q does not start with the op: span prefix", name, val)
		}
		if first, dup := byValue[val]; dup {
			report(namesFile.file.Pos(), namesFile, "span name %q declared more than once (obs.%s and obs.%s)", val, first, name)
		} else {
			byValue[val] = name
		}
		if !classed[name] {
			report(namesFile.file.Pos(), namesFile, "span name obs.%s has no class in the spanClass table", name)
		}
	}

	files, err := parseTree(root)
	if err != nil {
		return nil, err
	}
	refs := make(map[string]bool) // const name -> referenced outside obs
	for _, pf := range files {
		if pf.file.Name.Name == "obs" {
			continue
		}
		pf := pf
		rawName := func(e ast.Expr) {
			if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				rawSeen[pf.fset.Position(lit.Pos())] = true
				report(lit.Pos(), pf, "raw span name literal %s; declare it in obs/names.go with its class", lit.Value)
			}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok && pkg.Name == "obs" {
					if _, ok := consts[e.Sel.Name]; ok {
						refs[e.Sel.Name] = true
						return false
					}
				}
			case *ast.CallExpr:
				if sel, ok := e.Fun.(*ast.SelectorExpr); ok && len(e.Args) > 0 && (sel.Sel.Name == "Begin" || sel.Sel.Name == "Interval") {
					rawName(e.Args[0])
				}
			case *ast.CompositeLit:
				if sel, ok := e.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Span" {
					for _, el := range e.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
								rawName(kv.Value)
							}
						}
					}
				}
			case *ast.BasicLit:
				if e.Kind != token.STRING || rawSeen[pf.fset.Position(e.Pos())] {
					return true
				}
				val := strings.Trim(e.Value, "`\"")
				if strings.HasPrefix(val, obs.SpanOpPrefix) {
					report(e.Pos(), pf, "raw operator span literal %s; use the obs.Op* constants (or obs.SpanOpPrefix)", e.Value)
				} else if name, ok := byValue[val]; ok && strings.Contains(val, ":") {
					report(e.Pos(), pf, "raw span name literal %s; use obs.%s", e.Value, name)
				}
			}
			return true
		})
	}
	for _, name := range names {
		if !refs[name] {
			report(namesFile.file.Pos(), namesFile, "span name constant obs.%s is never used outside package obs", name)
		}
	}
	return findings, nil
}

// mapLiteralKeys returns the identifier keys of the package-level map
// literal `var name = map[…]…{…}` in pf.
func mapLiteralKeys(pf parsedFile, name string) map[string]bool {
	keys := make(map[string]bool)
	for _, decl := range pf.file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || vs.Names[0].Name != name || len(vs.Values) != 1 {
				continue
			}
			lit, ok := vs.Values[0].(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						keys[key.Name] = true
					}
				}
			}
		}
	}
	return keys
}
