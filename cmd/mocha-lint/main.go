// mocha-lint runs the repository's custom static checks (see
// internal/analysis): the metric-inventory and operator-span-inventory
// checks against internal/obs/names.go, the wire frame-name table
// check, the check that no raw per-byte cost literal lives outside
// the operator catalog, and the check that only tests call the test
// hooks. CI runs it on every push; a non-empty finding list fails the
// build.
//
// Usage:
//
//	mocha-lint [repo-root]
package main

import (
	"fmt"
	"os"

	"mocha/internal/analysis"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := analysis.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mocha-lint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mocha-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
