// Package analysis holds the repository's custom static checks, run by
// cmd/mocha-lint in CI. The checks are purely syntactic (go/ast over the
// source tree, no type information), which keeps them dependency-free
// and fast enough to run on every build.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Msg)
}

// parsedFile is one parsed source file with its fileset (positions are
// only meaningful against the owning fileset).
type parsedFile struct {
	fset *token.FileSet
	file *ast.File
	path string
}

// parseTree parses every non-test .go file under root, skipping vendored
// and generated trees.
func parseTree(root string) ([]parsedFile, error) {
	var out []parsedFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "vendor", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("analysis: %s: %w", path, err)
		}
		out = append(out, parsedFile{fset: fset, file: file, path: path})
		return nil
	})
	return out, err
}

// parseOne parses a single file.
func parseOne(path string) (parsedFile, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return parsedFile{}, fmt.Errorf("analysis: %s: %w", path, err)
	}
	return parsedFile{fset: fset, file: file, path: path}, nil
}

// constStrings collects `Name = "literal"` string constants declared in
// a file whose names match the given prefix filter (empty matches all).
func constStrings(pf parsedFile, prefix string) map[string]string {
	out := make(map[string]string)
	for _, decl := range pf.file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if prefix != "" && !strings.HasPrefix(name.Name, prefix) {
					continue
				}
				if i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					out[name.Name] = strings.Trim(lit.Value, "`\"")
				}
			}
		}
	}
	return out
}

// Run executes every check against the repository rooted at root.
func Run(root string) ([]Finding, error) {
	var all []Finding
	for _, check := range []func(string) ([]Finding, error){ObsMetrics, WireCheck, ExecOps, CostTable, TestHooks} {
		fs, err := check(root)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}
