package wdc

// The unused-export audit: every exported identifier under internal/ — a
// top-level name, or a method of a type declared there — must be used by
// some non-test code: its own package's, another internal/ package's,
// cmd/, examples/, this facade, or the benchmark module under benchmark/.
// A method is also used when it implements a method of an interface its
// type satisfies (des.Handler, traffic.Sink, fmt.Stringer, sort.Interface,
// ...) and non-test code converts a value of the type, or a pointer to
// one, to an interface type — in an assignment, a call argument, a return
// value, a composite-literal element or a channel send — since an
// interface call reaches it where no selector names it. A conversion to
// any counts too: fmt and sort reach methods by type assertion. Anything
// else carries a one-line reason on the allowlist below. Uses are
// resolved by go/types, so a call of one type's method does not count for
// another type's method of the same name. Standard library only: the
// tree's packages are checked from source, the standard library is read
// from its export data. Run it alone with `make audit`.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// auditAllow names exported identifiers the audit must not flag, as
// "pkg.Name" for top-level names and "pkg.Type.Method" for methods, each
// with the reason it stays. An entry that becomes used, or whose
// declaration disappears, fails the audit too, so the list cannot go stale.
var auditAllow = map[string]string{
	// The paper's theorems in closed form, pinned to it by calculus tests.
	"calculus.G1Hetero":           "Theorem 3's g1; TestRhoStarMatchesBisection roots g1 − g2 at ρ*",
	"calculus.G2":                 "Theorem 3's g2; TestThresholdSeparates holds g1 ≷ g2 around ρ*",
	"calculus.RhoBarForOrder":     "Theorems 5–6's O(Kⁿ) band edge; TestImprovementOrderKn holds the floor there",
	"calculus.MulticastDgHomog":   "Remark 2, homogeneous; TestMulticastThresholdOrdering checks Theorem 8(ii) with it",
	"calculus.MulticastDhatHomog": "Theorem 8(i); TestMulticastThresholdOrdering checks Theorem 8(ii) with it",
	// A reference implementation the production code is checked against.
	"topo.Graph.FloydWarshall": "the all-pairs oracle TestQuickAPSPMatchesFloydWarshall holds AllPairs to",
	// Accessors a test reads where no result does yet.
	"stats.MaxTracker.Tag":  "the ID of the worst packet the session's per-group delay trackers observe",
	"snap.Reader.Remaining": "the record-width probe of the mux, regulator and core snapshot tests",
}

// auditModule is the module path the audited import paths start with.
const auditModule = "repro"

// auditPkg is one package of the tree's non-test files.
type auditPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// auditTree type-checks the tree's packages on demand, each once: the
// benchmark module's repro/... imports resolve, as its replace directive
// says, to the same packages as everyone else's.
type auditTree struct {
	fset *token.FileSet
	pkgs map[string]*auditPkg
	std  types.Importer
}

func (a *auditTree) Import(path string) (*types.Package, error) {
	p, ok := a.pkgs[path]
	if !ok {
		return a.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: a}
		pkg, err := conf.Check(p.path, a.fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// auditLoad parses every non-test Go file under the working directory, the
// benchmark module included, and type-checks every package.
func auditLoad(t *testing.T) *auditTree {
	a := &auditTree{fset: token.NewFileSet(), pkgs: map[string]*auditPkg{}, std: importer.Default()}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(a.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := auditModule
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		if a.pkgs[pkg] == nil {
			a.pkgs[pkg] = &auditPkg{path: pkg}
		}
		a.pkgs[pkg].files = append(a.pkgs[pkg].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("benchmark"); err != nil {
		t.Fatalf("benchmark module not found beside the facade: %v", err)
	}
	for path := range a.pkgs {
		if _, err := a.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// auditInterfaces maps each method name to the interfaces, declared at
// package level in the tree or in any package it imports, that carry a
// method of that name; the predeclared error is among them.
func auditInterfaces(a *auditTree) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			return
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			add(p.Scope().Lookup(name))
		}
		for _, im := range p.Imports() {
			walk(im)
		}
	}
	for _, p := range a.pkgs {
		walk(p.pkg)
	}
	return byName
}

// auditImplements reports whether method m of named type n implements a
// method of an interface that n or *n satisfies.
func auditImplements(n *types.Named, m *types.Func, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[m.Name()] {
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}

// auditBoxed returns the named types a value of which, or of a pointer to
// which, non-test code converts to an interface type.
func auditBoxed(a *auditTree) map[*types.Named]bool {
	boxed := map[*types.Named]bool{}
	for _, p := range a.pkgs {
		info := p.info
		// box records e's type if a value of it is converted to type to.
		box := func(e ast.Expr, to types.Type) {
			from := info.TypeOf(e)
			if to == nil || from == nil || !types.IsInterface(to) || types.IsInterface(from) {
				return
			}
			if ptr, ok := from.(*types.Pointer); ok {
				from = ptr.Elem()
			}
			if n, ok := from.(*types.Named); ok {
				boxed[n.Origin()] = true
			}
		}
		for _, f := range p.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i, r := range n.Rhs {
							box(r, info.TypeOf(n.Lhs[i]))
						}
					}
				case *ast.ValueSpec:
					if n.Type != nil {
						for _, v := range n.Values {
							box(v, info.TypeOf(n.Type))
						}
					}
				case *ast.CallExpr:
					fn := info.Types[n.Fun]
					if fn.IsType() {
						if len(n.Args) == 1 {
							box(n.Args[0], fn.Type)
						}
						break
					}
					sig, ok := fn.Type.Underlying().(*types.Signature)
					if !ok {
						break
					}
					for i, arg := range n.Args {
						params := sig.Params()
						switch last := params.Len() - 1; {
						case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
							box(arg, params.At(last).Type().(*types.Slice).Elem())
						case i <= last:
							box(arg, params.At(i).Type())
						}
					}
				case *ast.ReturnStmt:
					for i := len(stack) - 2; i >= 0; i-- {
						var sig *types.Signature
						switch fn := stack[i].(type) {
						case *ast.FuncDecl:
							sig = info.Defs[fn.Name].Type().(*types.Signature)
						case *ast.FuncLit:
							sig = info.TypeOf(fn).(*types.Signature)
						default:
							continue
						}
						if res := sig.Results(); res.Len() == len(n.Results) {
							for j, r := range n.Results {
								box(r, res.At(j).Type())
							}
						}
						break
					}
				case *ast.CompositeLit:
					lit := info.TypeOf(n)
					if lit == nil {
						break
					}
					for i, elt := range n.Elts {
						key, val := ast.Expr(nil), elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							key, val = kv.Key, kv.Value
						}
						switch u := lit.Underlying().(type) {
						case *types.Slice:
							box(val, u.Elem())
						case *types.Array:
							box(val, u.Elem())
						case *types.Map:
							box(key, u.Key())
							box(val, u.Elem())
						case *types.Struct:
							if id, ok := key.(*ast.Ident); ok {
								box(val, info.TypeOf(id))
							} else if key == nil && i < u.NumFields() {
								box(val, u.Field(i).Type())
							}
						}
					}
				case *ast.SendStmt:
					if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						box(n.Value, ch.Elem())
					}
				}
				return true
			})
		}
	}
	return boxed
}

func TestUnusedExports(t *testing.T) {
	a := auditLoad(t)
	used := map[types.Object]bool{}
	for _, p := range a.pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin() // a method of an instantiated generic type
			}
			used[obj] = true
		}
	}
	ifaces := auditInterfaces(a)
	boxed := auditBoxed(a)

	var unused []string
	seen := map[string]bool{}
	check := func(key string, used bool) {
		seen[key] = true
		_, allowed := auditAllow[key]
		switch {
		case used && allowed:
			t.Errorf("%s is allowlisted but now used by non-test code: drop its allowlist entry", key)
		case !used && !allowed:
			unused = append(unused, key)
		}
	}
	decls := 0
	for path, p := range a.pkgs {
		short, ok := strings.CutPrefix(path, auditModule+"/internal/")
		if !ok {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				decls++
				check(short+"."+name, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) {
				continue
			}
			for i := range n.NumMethods() {
				if m := n.Method(i); m.Exported() {
					decls++
					check(short+"."+name+"."+m.Name(), used[m] || boxed[n] && auditImplements(n, m, ifaces))
				}
			}
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but no non-test code uses it: delete it, unexport it, or allowlist it with a reason", k)
	}
	for k := range auditAllow {
		if !seen[k] {
			t.Errorf("allowlist entry %s names no exported declaration: drop it", k)
		}
	}
	t.Logf("audited %d exported declarations under internal/; allowlist size %d", decls, len(auditAllow))
}
