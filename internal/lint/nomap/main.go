// Command nomap enforces the run path's determinism rule (DESIGN.md
// "Kernel data structures and the determinism contract"): in the packages
// a packet passes through, no struct keeps a map and nothing ranges over
// one, so no result can depend on Go's randomized map iteration order and
// no per-packet step pays for hashing. `make vet` runs it over
// internal/{bs,ip,node,tcp,link,queue,sim,packet}.
//
//	go run ./internal/lint/nomap DIR...
//
// DIRs are package directories of the module whose go.mod is in the
// working directory; the module is loaded once (internal/lint/load).
//
// Test files are exempt (a map is the obvious reference model). A
// package-level map that is only indexed — the Kind and Scheme name tables —
// is neither a field nor a range; the one that is searched by value is
// listed in allowed: names are parsed and printed, never touched per packet.
package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"

	"wtcp/internal/lint/load"
)

// allowed names the package-level lookup tables that may be ranged over
// (bs.ParseScheme searches schemeNames by value).
var allowed = map[string]bool{"schemeNames": true}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: nomap DIR...")
		os.Exit(2)
	}
	m, err := load.Load(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nomap: %v\n", err)
		os.Exit(2)
	}
	findings, err := check(m, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "nomap: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintln(os.Stderr, "nomap: maps on the run path (use queue.Table, or an indexed slice)")
		os.Exit(1)
	}
}

// check reports every map-typed struct field and every range over a map
// in the packages of m in dirs (relative to the module root).
func check(m *load.Module, dirs []string) ([]string, error) {
	byDir := map[string]*load.Package{}
	for _, pkg := range m.Packages {
		byDir[pkg.Dir] = pkg
	}
	var findings []string
	for _, dir := range dirs {
		pkg := byDir[dir]
		if pkg == nil {
			return nil, fmt.Errorf("%s: no package of the module", dir)
		}
		isMap := func(e ast.Expr) bool {
			t := pkg.Info.TypeOf(e)
			if t == nil {
				return false
			}
			_, ok := t.Underlying().(*types.Map)
			return ok
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, field := range n.Fields.List {
						if isMap(field.Type) {
							findings = append(findings, fmt.Sprintf("%s: map-typed field", m.Fset.Position(field.Pos())))
						}
					}
				case *ast.RangeStmt:
					if id, ok := n.X.(*ast.Ident); ok && allowed[id.Name] {
						break
					}
					if isMap(n.X) {
						findings = append(findings, fmt.Sprintf("%s: range over a map", m.Fset.Position(n.Pos())))
					}
				}
				return true
			})
		}
	}
	return findings, nil
}
