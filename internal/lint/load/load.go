// Package load type-checks the packages of one Go module from source, for
// the lints under internal/lint, with the standard library and the go
// command only. `go list -deps -export` names the files the host platform
// builds (build tags applied, test files left out) and lists a package
// after everything it imports; the module's own packages are checked in
// that order, so one declaration is one types.Object wherever the module
// uses it, and the standard library is read from the export data the same
// command leaves in the build cache.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package of the module.
type Package struct {
	Path  string // import path
	Dir   string // slash-separated, relative to the module root ("." for the root)
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded module: its packages, each after every package of
// the module it imports.
type Module struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Load loads every package of the module whose go.mod is in root.
func Load(root string) (*Module, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles,Module", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	m := &Module{Fset: token.NewFileSet()}
	export := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(m.Fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return std.Import(path)
	})}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			Standard                bool
			GoFiles                 []string
			Module                  struct{ Dir string }
		}
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Standard {
			export[p.ImportPath] = p.Export
			continue
		}
		rel, err := filepath.Rel(p.Module.Dir, p.Dir)
		if err != nil {
			return nil, err
		}
		pkg := &Package{Path: p.ImportPath, Dir: filepath.ToSlash(rel), Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.Fset, filepath.Join(root, rel, name), nil, 0)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		if pkg.Types, err = conf.Check(p.ImportPath, m.Fset, pkg.Files, pkg.Info); err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg.Types
		m.Packages = append(m.Packages, pkg)
	}
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
