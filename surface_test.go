package ossd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// surfaceRoots are the trees whose exported functions and methods must
// each have a caller in non-test code.
var surfaceRoots = []string{"internal", "cmd", "examples"}

// surfaceReaders are read for references but not checked: the benchmark
// harness is a separate module that drives the simulator's public API.
var surfaceReaders = []string{"perfbench"}

// allowedMethods are exported method names that other code reaches
// through a standard-library interface, never by name.
var allowedMethods = map[string]string{
	"String": "fmt.Stringer, called by the fmt verbs",
	"Error":  "error interface, called by fmt and errors",
	"Len":    "sort.Interface / heap.Interface",
	"Less":   "sort.Interface / heap.Interface",
	"Swap":   "sort.Interface / heap.Interface",
	"Push":   "heap.Interface",
	"Pop":    "heap.Interface",
	"Int63":  "math/rand.Source64, called by rand.Rand",
}

// allowedFuncs are exported functions kept without a non-test caller,
// keyed "pkg.Func" or "pkg.Type.Method" by the declaring directory's
// base name.
var allowedFuncs = map[string]string{
	"sched.Pick":         "stateless reference scan the indexed Queue is checked and benchmarked against",
	"sim.Engine.Pending": "drain oracle: core, osd and root tests check a run leaves no event scheduled",
}

// TestExportedSurfaceIsUsed fails when an exported function or method in
// non-test code under internal/, cmd/ or examples/ is not referenced from
// any non-test file. A package-level function counts as referenced when
// its own package names it or another package selects it through an
// import. Methods are matched by name alone (any selector or interface
// method with that name counts), so the check catches dead methods, not
// every method whose name is reused.
func TestExportedSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, name string
		method    bool
		pos       token.Position
	}
	var decls []decl
	funcRefs := map[string]bool{} // "dir.Name"
	methodRefs := map[string]bool{}
	scan := func(root string, check bool) {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			imports := map[string]string{} // local name -> module-relative dir
			for _, im := range f.Imports {
				ip := strings.Trim(im.Path.Value, `"`)
				rel, ok := strings.CutPrefix(ip, "ossd/") // the module path in go.mod
				if !ok {
					continue
				}
				name := rel[strings.LastIndex(rel, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = rel
			}
			skip := map[*ast.Ident]bool{}
			for _, n := range f.Decls {
				fn, ok := n.(*ast.FuncDecl)
				if !ok {
					continue
				}
				skip[fn.Name] = true
				if !check || !fn.Name.IsExported() {
					continue
				}
				key := filepath.Base(dir) + "." + fn.Name.Name
				if fn.Recv != nil {
					key = filepath.Base(dir) + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fn.Name.Name, fn.Recv != nil, fset.Position(fn.Pos())})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							methodRefs[id.Name] = true
						}
					}
				case *ast.SelectorExpr:
					skip[n.Sel] = true // a field or method, never a local function
					methodRefs[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								skip[id] = true // a field name: a function is never a key
							}
						}
					}
				case *ast.Ident:
					if !skip[n] {
						funcRefs[dir+"."+n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, root := range surfaceRoots {
		scan(root, true)
	}
	for _, root := range surfaceReaders {
		scan(root, false)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found; run from the repository root")
	}
	allowUsed := map[string]bool{}
	for _, d := range decls {
		used := funcRefs[filepath.ToSlash(filepath.Dir(d.pos.Filename))+"."+d.name]
		if d.method {
			used = methodRefs[d.name] || allowedMethods[d.name] != ""
		}
		switch {
		case !used && allowedFuncs[d.key] != "":
			allowUsed[d.key] = true
		case !used:
			t.Errorf("%s: %s is exported but never referenced outside tests", d.pos, d.key)
		}
	}
	for key := range allowedFuncs {
		if !allowUsed[key] {
			t.Errorf("allow-list entry %s is stale: it is gone or has a non-test caller", key)
		}
	}
}

// recvName returns the receiver's type name without pointer or type
// parameters.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
