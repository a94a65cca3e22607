// Command deadcode reports every declaration under internal/ that no
// program of the module runs: code only a test needs belongs in a
// _test.go file, and code nothing needs is deleted. `make vet` runs it:
//
//	go run ./internal/lint/deadcode [ROOT]
//
// ROOT (default ".") holds go.mod. On the files the host platform builds
// (internal/lint/load), the roots are func main of every main package and
// the init funcs and untyped blank vars (`var _ = f()`, run for their
// effect) of the packages the mains link. A reached declaration reaches
// every package-level declaration and method its source names (a call, a
// method value, a promoted selector). A reached type also reaches each of
// its methods whose name is a method of some interface the module or its
// imports declare, since a call through an interface names only the
// interface's method; Unwrap, Is and As count too, because errors looks
// for them through interfaces it does not name. A typed blank var
// (`var _ I = T{}`) is a compile-time assertion and reaches nothing. Test
// files are not loaded, so a declaration only a test names is reported.
//
// So is an exported field of an exported struct under internal/ that
// reached code reads and none writes: assigns or ++es (as x.F, x.F.G or
// x.F[i]), addresses or sets in a literal. A json-tagged field counts as
// written: a decode sets it. A defaulting write does not count — x.F = D
// in the body of an if that tests that same x.F for its zero value
// (== 0, <= 0, == nil, == "", len(x.F) == 0) — so a field nothing else
// writes runs at its default every run, and becomes a constant, a value
// derived where it is used, or an unexported seam its package's tests
// set. Any other compare (`if n > x.F { x.F = n }`) still writes.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"reflect"
	"sort"
	"strings"

	"wtcp/internal/lint/load"
)

// allowed exempts a package directory, a declaration ("dir.Name" or
// "dir.Type.Method") and what it reaches, or a field ("dir.Type.Field"),
// with the reason it stays.
var allowed = map[string]string{
	"internal/analytic":                        "the paper's closed-form ceilings; ROADMAP item 3's control variate and item 6(a)'s fade-hit claim are their first callers",
	"internal/scenario.FuzzSeeds":              "the seed corpus two packages' fuzzers share (scenario and serve tests)",
	"internal/stats.Sample.CI95":               "the interval column of every Fig 7-11 row (ROADMAP item 1A)",
	"internal/errmodel.Markov.Intervals":       "TestRunsShareTheChannel (internal/core) compares a run's channel with its rebuild, the rebuild ROADMAP item 3's control variate will use",
	"internal/fleet.WorkerConfig.BeforeResult": "the crash-boundary seam TestWorkerSIGKILLBeforePost (crash_test.go) kills the worker at",
	"internal/fleet.WorkerConfig.AfterResult":  "the crash-boundary seam TestWorkerSIGKILLAfterPost (crash_test.go) kills the worker at",
	"internal/bs.ARQConfig.Window":             "EXPERIMENTS.md's ARQ pipelining ablation (Example_arqWindow in internal/core: stop-and-wait costs 35% against the default window of 4) sets it",
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	m, err := load.Load(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadcode: %v\n", err)
		os.Exit(2)
	}
	findings := check(m, allowed)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintln(os.Stderr, "deadcode: no main and no init reaches these, or writes these fields (a write that only fills a zero value in does not count): delete them (a field with the branches that read it), move them into a _test.go file, or allow them with a reason; a knob only its default writes becomes a constant, a derived value, or an unexported seam its package's tests set")
		os.Exit(1)
	}
}

// finding is one unreached declaration, an unwritten field, or an allow
// entry that exempts nothing (kind "entry": it has outlived its reason).
type finding struct {
	pos        token.Position
	kind, name string // name is pkg.Name, pkg.Type.Method or pkg.Type.Field
	lines      int
}

func (f finding) String() string {
	switch f.kind {
	case "entry":
		return fmt.Sprintf("allowed entry %s exempts nothing; delete it", f.name)
	case "field":
		return fmt.Sprintf("%s: field %s is read and never written", f.pos, f.name)
	}
	return fmt.Sprintf("%s: %s %s is unreachable (%d lines)", f.pos, f.kind, f.name, f.lines)
}

// decl is one package-level declaration.
type decl struct {
	pkg    *load.Package
	kind   string
	refs   []types.Object // the package-level objects its source names
	lines  int
	writes []types.Object // the fields its source writes
}

// check returns the unreached declarations and unwritten fields under
// internal/ that allow does not exempt, in file order, and the entries of
// allow that exempt nothing.
func check(m *load.Module, allow map[string]string) []finding {
	decls := map[types.Object]*decl{}
	methods := map[*types.TypeName][]types.Object{}
	linked := linkedPackages(m)
	viaInterface := interfaceMethodNames(m)
	var roots []types.Object
	add := func(pkg *load.Package, obj types.Object, kind string, at, src ast.Node) *decl {
		d := &decl{pkg: pkg, kind: kind, lines: m.Fset.Position(at.End()).Line - m.Fset.Position(at.Pos()).Line + 1}
		defaults := map[ast.Expr]bool{}
		ast.Inspect(src, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok {
				markDefaults(pkg.Info, ifs, defaults)
			}
			if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] != nil {
				obj := pkg.Info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				d.refs = append(d.refs, obj)
			}
			d.writes = append(d.writes, writes(pkg.Info, n, defaults)...)
			return true
		})
		decls[obj] = d
		return d
	}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					if tn := receiver(obj); tn != nil {
						methods[tn] = append(methods[tn], obj)
						add(pkg, obj, "method", d, d)
						continue
					}
					add(pkg, obj, "func", d, d)
					if linked[pkg] && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					// A lone spec occupies its whole declaration's lines.
					var at ast.Node = d
					for _, spec := range d.Specs {
						if len(d.Specs) > 1 {
							at = spec
						}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(pkg, pkg.Info.Defs[s.Name], "type", at, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									dc := add(pkg, pkg.Info.Defs[id], strings.ToLower(d.Tok.String()), at, s)
									// A const spec without values repeats the type above.
									if named, ok := pkg.Info.Defs[id].Type().(*types.Named); ok {
										dc.refs = append(dc.refs, named.Obj())
									}
								} else if s.Type == nil && linked[pkg] {
									blank := types.NewVar(id.Pos(), pkg.Types, "_", nil)
									add(pkg, blank, "var", at, s)
									roots = append(roots, blank)
								}
							}
						}
					}
				}
			}
		}
	}

	reached, written := map[types.Object]bool{}, map[types.Object]bool{}
	walk := func(queue []types.Object) {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			if reached[obj] {
				continue
			}
			reached[obj] = true
			if d := decls[obj]; d != nil {
				queue = append(queue, d.refs...)
				for _, w := range d.writes {
					written[w] = true
				}
			}
			if tn, ok := obj.(*types.TypeName); ok {
				for _, meth := range methods[tn] {
					if viaInterface[meth.Name()] {
						queue = append(queue, meth)
					}
				}
			}
		}
	}
	walk(roots)
	var kept []types.Object
	used := map[string]bool{}
	for obj, d := range decls {
		for _, key := range []string{d.pkg.Dir, d.pkg.Dir + "." + qualified(obj)} {
			if allow[key] != "" && !reached[obj] {
				used[key] = true
				kept = append(kept, obj)
			}
		}
	}
	walk(kept)

	var out []finding
	for obj, d := range decls {
		tn, isType := obj.(*types.TypeName)
		switch {
		case !strings.HasPrefix(d.pkg.Dir, "internal/"):
		case !reached[obj]:
			out = append(out, finding{m.Fset.Position(obj.Pos()), d.kind, d.pkg.Types.Name() + "." + qualified(obj), d.lines})
		case isType && tn.Exported():
			st, _ := tn.Type().Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				v, name := st.Field(i), tn.Name()+"."+st.Field(i).Name()
				switch {
				case !v.Exported() || !reached[v] || written[v] || reflect.StructTag(st.Tag(i)).Get("json") != "":
				case allow[d.pkg.Dir+"."+name] != "":
					used[d.pkg.Dir+"."+name] = true
				default:
					out = append(out, finding{m.Fset.Position(v.Pos()), "field", d.pkg.Types.Name() + "." + name, 1})
				}
			}
		}
	}
	for key := range allow {
		if !used[key] {
			out = append(out, finding{kind: "entry", name: key})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset || a.Offset == b.Offset && out[i].name < out[j].name
	})
	return out
}

// qualified names a declaration within its package: Name or Type.Method.
func qualified(obj types.Object) string {
	if tn := receiver(obj); tn != nil {
		return tn.Name() + "." + obj.Name()
	}
	return obj.Name()
}

// receiver returns the named type a method is declared on, or nil.
func receiver(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// interfaceMethodNames returns the names of the methods of every
// interface the module declares (named or literal) or its imports
// declare by name, of error, and the Unwrap, Is and As that errors finds
// through interface literals of its own.
func interfaceMethodNames(m *load.Module) map[string]bool {
	names := map[string]bool{"Unwrap": true, "Is": true, "As": true}
	addIface := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				names[iface.Method(i).Name()] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.Packages {
		visit(pkg.Types)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok && pkg.Info.Types[lit].Type != nil {
					addIface(pkg.Info.Types[lit].Type)
				}
				return true
			})
		}
	}
	return names
}

// linkedPackages returns the packages some main package imports, directly
// or not, and the mains: the packages whose inits run.
func linkedPackages(m *load.Module) map[*load.Package]bool {
	byPath := map[string]*load.Package{}
	for _, pkg := range m.Packages {
		byPath[pkg.Path] = pkg
	}
	linked := map[*load.Package]bool{}
	var visit func(pkg *load.Package)
	visit = func(pkg *load.Package) {
		if pkg == nil || linked[pkg] {
			return
		}
		linked[pkg] = true
		for _, imp := range pkg.Types.Imports() {
			visit(byPath[imp.Path()])
		}
	}
	for _, pkg := range m.Packages {
		if pkg.Types.Name() == "main" {
			visit(pkg)
		}
	}
	return linked
}

// markDefaults adds to defaults each assignment in the body of ifs to
// the field its condition tests for the zero value: x.F in
// `if x.F <= 0 { x.F = D }`, and likewise for == 0, == nil, == "" and
// len(x.F) == 0.
func markDefaults(info *types.Info, ifs *ast.IfStmt, defaults map[ast.Expr]bool) {
	cmp, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
	if !ok || cmp.Op != token.EQL && cmp.Op != token.LEQ {
		return
	}
	if y := info.Types[cmp.Y]; !y.IsNil() && (y.Value == nil || y.Value.ExactString() != "0" && y.Value.ExactString() != `""`) {
		return
	}
	x := ast.Unparen(cmp.X)
	if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 && info.Types[call.Fun].IsBuiltin() && types.ExprString(call.Fun) == "len" {
		x = ast.Unparen(call.Args[0])
	}
	if _, ok := x.(*ast.SelectorExpr); !ok {
		return
	}
	want := types.ExprString(x)
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				defaults[l] = defaults[l] || types.ExprString(l) == want
			}
		}
		return true
	})
}

// writes returns the fields node n writes, less the targets defaults
// names (a generic type's fields are not tracked).
func writes(info *types.Info, n ast.Node, defaults map[ast.Expr]bool) (fields []types.Object) {
	var lhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs = n.Lhs
	case *ast.IncDecStmt:
		lhs = []ast.Expr{n.X}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			lhs = []ast.Expr{n.X}
		}
	case *ast.CompositeLit:
		t := info.Types[n].Type.Underlying()
		if p, ok := t.(*types.Pointer); ok { // an elided &T, as in []*T{{...}}
			t = p.Elem().Underlying()
		}
		st, _ := t.(*types.Struct)
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					fields = append(fields, info.Uses[key])
				}
			} else if st != nil {
				fields = append(fields, st.Field(i))
			}
		}
	}
	for _, e := range lhs {
		if defaults[e] {
			continue
		}
		for e != nil { // x.F.G, x.F[i] and *x.F write every field they name
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				fields, e = append(fields, info.Uses[x.Sel]), x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				e = nil
			}
		}
	}
	return fields
}
