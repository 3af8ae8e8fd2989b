package wdc

// The unused-export audit: every exported identifier under internal/ must
// be referenced by some non-test code — its own package's, another
// internal/ package's, cmd/, examples/, this facade, or the benchmark
// module under benchmark/ — or carry a one-line reason on the allowlist
// below. Standard library only (go/parser + go/ast), so it runs wherever
// `go test` does. Run it alone with `make audit`.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditAllow names exported identifiers the audit must not flag, as
// "pkg.Name" for top-level names and "pkg.Type.Method" for methods, each
// with the reason it stays. An entry that becomes referenced, or whose
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
	// sort.Interface methods, called by sort.Sort alone.
	"des.sorter.Less": "sort.Sort's comparison when a runner sorts its shard's outboxes",
	"des.sorter.Swap": "sort.Sort's exchange when a runner sorts its shard's outboxes",
}

// auditModule is the module path the audited import paths start with.
const auditModule = "repro"

// auditDecl is one exported declaration under internal/.
type auditDecl struct {
	pkg  string // import path
	recv string // receiver type name; "" for a top-level name
	name string
}

func (d auditDecl) key() string {
	short := strings.TrimPrefix(d.pkg, auditModule+"/internal/")
	if d.recv != "" {
		return short + "." + d.recv + "." + d.name
	}
	return short + "." + d.name
}

// auditFile is one parsed non-test file and the import path of its package.
type auditFile struct {
	pkg  string
	file *ast.File
}

func TestUnusedExports(t *testing.T) {
	var files []auditFile
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := auditModule
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		files = append(files, auditFile{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("benchmark"); err != nil {
		t.Fatalf("benchmark module not found beside the facade: %v", err)
	}

	var decls []auditDecl
	topRefs := map[string]bool{}    // "path.Name" referenced from non-test code
	methodRefs := map[string]bool{} // any selector name in non-test code
	for _, af := range files {
		imports := map[string]string{}
		for _, im := range af.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		if strings.HasPrefix(af.pkg, auditModule+"/internal/") {
			for _, d := range auditDecls(af) {
				decls = append(decls, d.auditDecl)
				declared[d.ident] = true
			}
		}
		ast.Inspect(af.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						topRefs[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					topRefs[af.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		k := d.key()
		seen[k] = true
		used := topRefs[d.pkg+"."+d.name]
		if d.recv != "" {
			used = methodRefs[d.name]
		}
		_, allowed := auditAllow[k]
		switch {
		case used && allowed:
			t.Errorf("%s is allowlisted but now referenced by non-test code: drop its allowlist entry", k)
		case !used && !allowed:
			unused = append(unused, k)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but no non-test code references it: delete it, unexport it, or allowlist it with a reason", k)
	}
	for k := range auditAllow {
		if !seen[k] {
			t.Errorf("allowlist entry %s names no exported declaration: drop it", k)
		}
	}
	t.Logf("audited %d exported declarations under internal/; allowlist size %d", len(decls), len(auditAllow))
}

type auditNamed struct {
	auditDecl
	ident *ast.Ident
}

// auditDecls lists a file's exported top-level names and exported methods.
func auditDecls(af auditFile) []auditNamed {
	var out []auditNamed
	add := func(recv string, id *ast.Ident) {
		if id.IsExported() {
			out = append(out, auditNamed{auditDecl{af.pkg, recv, id.Name}, id})
		}
	}
	for _, decl := range af.file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add("", decl.Name)
				continue
			}
			recv := decl.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				add(id.Name, decl.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add("", id)
					}
				}
			}
		}
	}
	return out
}
