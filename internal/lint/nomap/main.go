// Command nomap enforces the run path's determinism rule (DESIGN.md
// "Kernel data structures and the determinism contract"): in the packages
// a packet passes through, no struct keeps a map and nothing ranges over
// one, so no result can depend on Go's randomized map iteration order and
// no per-packet step pays for hashing. `make vet` runs it over
// internal/{bs,ip,node,tcp,link,queue,sim,packet}.
//
//	go run ./internal/lint/nomap DIR...
//
// Test files are exempt (a map is the obvious reference model). A
// package-level map that is only indexed — the Kind and Scheme name tables —
// is neither a field nor a range; the one that is searched by value is
// listed in allowed: names are parsed and printed, never touched per packet.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// allowed names the package-level lookup tables that may be ranged over
// (bs.ParseScheme searches schemeNames by value).
var allowed = map[string]bool{"schemeNames": true}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: nomap DIR...")
		os.Exit(2)
	}
	// One importer for every package: it type-checks each dependency from
	// source once and remembers it.
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var findings []string
	for _, dir := range os.Args[1:] {
		f, err := check(fset, imp, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nomap: %s: %v\n", dir, err)
			os.Exit(2)
		}
		findings = append(findings, f...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintln(os.Stderr, "nomap: maps on the run path (use queue.Table, or an indexed slice)")
		os.Exit(1)
	}
}

// check type-checks the non-test files of the package in dir and reports
// every map-typed struct field and every range over a map.
func check(fset *token.FileSet, imp types.Importer, dir string) ([]string, error) {
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, pkg := range pkgs {
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names) // findings in file, then source, order
		var files []*ast.File
		for _, name := range names {
			files = append(files, pkg.Files[name])
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			return nil, err
		}
		isMap := func(e ast.Expr) bool {
			t := info.TypeOf(e)
			if t == nil {
				return false
			}
			_, ok := t.Underlying().(*types.Map)
			return ok
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					for _, field := range n.Fields.List {
						if isMap(field.Type) {
							findings = append(findings, fmt.Sprintf("%s: map-typed field", fset.Position(field.Pos())))
						}
					}
				case *ast.RangeStmt:
					if id, ok := n.X.(*ast.Ident); ok && allowed[id.Name] {
						break
					}
					if isMap(n.X) {
						findings = append(findings, fmt.Sprintf("%s: range over a map", fset.Position(n.Pos())))
					}
				}
				return true
			})
		}
	}
	return findings, nil
}
