package wishbone

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
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// referencePkg holds the engine the parity suites compare against. It is
// non-test code only so that several packages' tests can share it: it is
// exempt from the rule below, and no non-test package may import it.
const referencePkg = "wishbone/internal/dataflow/reference"

// listedPkg is the part of `go list -json` this test reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Deps       []string
}

// TestNoTestOnlyExports holds every declaration in a non-test file under
// internal/ to a non-test user: each function, method and package-level
// type, var or const must be named by the module's non-test code (the
// root package, cmd/, examples/ and bench/ count as users), or, for a
// method, its receiver must satisfy an interface that names it. Code
// that only tests reach belongs in a _test.go file.
func TestNoTestOnlyExports(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPkg // dependencies before their importers
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	used := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	var internal []*types.Package
	root, rootDir := "", ""
	for _, p := range pkgs {
		if p.ImportPath != referencePkg {
			for _, d := range p.Deps {
				if d == referencePkg {
					t.Errorf("%s depends on %s, which only tests may use", p.ImportPath, referencePkg)
				}
			}
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if !strings.Contains(p.ImportPath, "/") {
			root, rootDir = p.ImportPath, p.Dir
		}
		if strings.Contains(p.ImportPath, "/internal/") && p.ImportPath != referencePkg {
			internal = append(internal, pkg)
		}
		if p.ImportPath == referencePkg {
			continue // what only the reference names is still test-only
		}
		for _, obj := range info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	// Interfaces declared in any package the module reaches, standard
	// library included (fmt.Stringer, error, heap.Interface, ...).
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	addIface(errType)

	// Types the root package re-exports by alias are library API, and so
	// are their methods (Graph.ByName).
	aliased := map[*types.TypeName]bool{}
	if p := checked[root]; p != nil {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n.Obj()] = true
				}
			}
		}
	}
	satisfies := func(recv types.Type, m *types.Func) bool {
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}
	exempt := func(n *types.Named, m *types.Func) bool {
		switch {
		// The errors protocol: errors.Is and errors.As call these
		// through interfaces they declare in their bodies.
		case (m.Name() == "Unwrap" || m.Name() == "Is") &&
			(types.Implements(n, errType) || types.Implements(types.NewPointer(n), errType)):
			return true
		// Methods of a type the root package re-exports are library API.
		case aliased[n.Obj()]:
			return true
		// The number of Instances a Program keeps listed: a gauge the
		// free-list tests of dataflow, runtime and server read, with no
		// shipped reader yet.
		case n.Obj().Pkg().Path() == "wishbone/internal/dataflow" &&
			n.Obj().Name() == "Program" && m.Name() == "ListedInstances":
			return true
		}
		return false
	}

	var bad []string
	report := func(obj types.Object, name string) {
		pos := fset.Position(obj.Pos())
		if rel, err := filepath.Rel(rootDir, pos.Filename); err == nil {
			pos.Filename = rel
		}
		bad = append(bad, fmt.Sprintf("%s.%s %s:%d", obj.Pkg().Name(), name, pos.Filename, pos.Line))
	}
	for _, pkg := range internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !used[obj] && name != "_" {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if used[m] || exempt(n, m) || (n.TypeParams() == nil && satisfies(n, m)) {
					continue
				}
				report(m, tn.Name()+"."+m.Name())
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("only tests reach %s", b)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of an instantiated generic function, method or field
// back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
