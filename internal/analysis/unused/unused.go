// Package unused is matscale-vet's whole-module dead-code check. It
// loads every package of a module at once and reports each
// package-level declaration and method that no non-test code reaches
// from the roots:
//
//   - the exported API of the module's root package, including every
//     method of a named type it declares or aliases;
//   - main and every init function;
//   - all code of nested modules (directories below the root holding
//     their own go.mod), which import the module as a dependency;
//   - a method of a reached type that satisfies an interface, since an
//     interface call reaches it without naming it.
//
// Keepers are declarations kept on purpose although only tests reach
// them; they and what they use are not reported. A keeper that names
// no declaration, or one the roots reach anyway, is stale.
//
// Only the standard library is needed: `go list -deps -json` finds the
// packages and go/types checks them from source, skipping function
// bodies outside the analysed modules.
package unused

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one unreached declaration. Name is its keeper key:
// "importpath.Name", or "importpath.Type.Method" for a method.
type Finding struct {
	Pos  token.Position
	Name string
}

// Report is the outcome of one check.
type Report struct {
	Unused []Finding // sorted by file and line
	Stale  []string  // sorted keeper keys
}

// Run checks the module rooted at dir, prints one "file:line: name"
// line per unused declaration and one "stale keeper: name" line per
// stale keeper to w, and returns the exit status: 0 when clean, 1 on
// any finding, 2 when the module cannot be loaded.
func Run(w io.Writer, dir string, keepers map[string]string) int {
	r, err := Check(dir, keepers)
	if err != nil {
		fmt.Fprintln(w, "matscale-vet unused:", err)
		return 2
	}
	for _, f := range r.Unused {
		fmt.Fprintf(w, "%s:%d: %s\n", f.Pos.Filename, f.Pos.Line, f.Name)
	}
	for _, k := range r.Stale {
		fmt.Fprintf(w, "stale keeper: %s\n", k)
	}
	if len(r.Unused)+len(r.Stale) > 0 {
		return 1
	}
	return 0
}

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath, Name, Dir string
	GoFiles               []string
	ImportMap             map[string]string
	Module                *struct{ Dir string }
	Error                 *struct{ Err string }
}

// stdBodyInterfaces are the interfaces errors.Is/As/Unwrap assert with
// literals inside function bodies, which the signature-only check of
// the standard library never sees.
const stdBodyInterfaces = `package p
type (
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)`

// Check analyses the module rooted at dir together with every nested
// module below it.
func Check(dir string, keepers map[string]string) (*Report, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := load(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	g := &graph{decls: map[types.Object]bool{}, edges: map[types.Object][]types.Object{}, reached: map[types.Object]bool{}}
	var ifaces []*types.Interface
	for _, p := range pkgs {
		if p.ImportPath == "unsafe" {
			continue
		}
		var modDir string
		if p.Module != nil {
			modDir = p.Module.Dir
		}
		nested := modDir != root && strings.HasPrefix(modDir, root+string(filepath.Separator))
		analysed := modDir == root || nested
		if analysed && p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{}
		if analysed {
			info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		}
		var typeErr error
		conf := types.Config{
			IgnoreFuncBodies: !analysed,
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if m, ok := p.ImportMap[path]; ok {
					path = m
				}
				if pkg := checked[path]; pkg != nil {
					return pkg, nil
				}
				return nil, fmt.Errorf("package %s not loaded", path)
			}),
			Error: func(err error) {
				if typeErr == nil {
					typeErr = err
				}
			},
		}
		pkg, _ := conf.Check(p.ImportPath, fset, files, info)
		if analysed && typeErr != nil {
			return nil, typeErr
		}
		checked[p.ImportPath] = pkg
		ifaces = append(ifaces, interfacesOf(pkg.Scope(), info)...)
		if analysed {
			g.add(pkg, p.Name, files, info, nested, modDir == root && p.Dir == root)
		}
	}
	f, _ := parser.ParseFile(fset, "", stdBodyInterfaces, 0)
	std, _ := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	ifaces = append(ifaces, interfacesOf(std.Scope(), &types.Info{})...)
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	// What the roots reach is used; a keeper among it is stale. Then
	// the keepers are walked, so what they use is kept with them.
	g.walk(g.roots, ifaces)
	r := &Report{}
	var kept []types.Object
	named := map[string]bool{}
	for obj := range g.decls {
		key := keyOf(obj)
		named[key] = true
		if _, ok := keepers[key]; ok {
			if g.reached[obj] {
				r.Stale = append(r.Stale, key)
			}
			kept = append(kept, obj)
		}
	}
	g.walk(kept, ifaces)
	for key := range keepers {
		if !named[key] {
			r.Stale = append(r.Stale, key)
		}
	}
	for obj := range g.decls {
		if !g.reached[obj] {
			pos := fset.Position(obj.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = rel
			}
			r.Unused = append(r.Unused, Finding{Pos: pos, Name: keyOf(obj)})
		}
	}
	sort.Strings(r.Stale)
	sort.Slice(r.Unused, func(i, j int) bool {
		a, b := r.Unused[i].Pos, r.Unused[j].Pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return r, nil
}

// load lists the packages of root's module and of every nested module
// below it (skipping vendor, testdata and hidden directories), with all
// their dependencies, each package once and after its dependencies. It
// never touches the network.
func load(root string) ([]*listed, error) {
	mods := []string{root}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			mods = append(mods, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*listed
	seen := map[string]bool{}
	for _, dir := range mods {
		mod := "-mod=readonly"
		if _, err := os.Stat(filepath.Join(dir, "vendor", "modules.txt")); err == nil {
			mod = "-mod=vendor"
		}
		cmd := exec.Command("go", "list", "-e", "-deps", "-json", mod, "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off", "GOFLAGS=", "CGO_ENABLED=0")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(listed)
			if err := dec.Decode(p); err != nil {
				return nil, err
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfacesOf returns the non-empty interfaces declared at package
// level in scope and every interface type expression recorded in info.
func interfacesOf(scope *types.Scope, info *types.Info) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// graph is the use graph over the declarations of the analysed
// modules.
type graph struct {
	decls   map[types.Object]bool // reportable declarations
	edges   map[types.Object][]types.Object
	roots   []types.Object
	reached map[types.Object]bool
}

// add records pkg's declarations, their uses and its roots.
func (g *graph) add(pkg *types.Package, name string, files []*ast.File, info *types.Info, nested, rootPkg bool) {
	def := func(owner types.Object, n ast.Node) {
		var uses []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && tracked(obj) {
					uses = append(uses, obj)
				}
			}
			return true
		})
		if nested || owner == nil {
			g.roots = append(g.roots, uses...)
			return
		}
		g.decls[owner] = true
		g.edges[owner] = append(g.edges[owner], uses...)
		if rootPkg && owner.Exported() {
			g.roots = append(g.roots, owner)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || name == "main" && d.Name.Name == "main") {
					def(nil, d)
				} else {
					def(info.Defs[d.Name], d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						def(info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							def(info.Defs[id], s) // nil for _
						}
					}
				}
			}
		}
	}
	if !rootPkg {
		return
	}
	// Every method of a type the root package exports or aliases,
	// promoted ones included, is public API.
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
			ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
			for i := 0; i < ms.Len(); i++ {
				g.roots = append(g.roots, ms.At(i).Obj())
			}
		}
	}
}

// tracked reports whether obj is a package-level declaration or a
// concrete method — the objects the graph tracks.
func tracked(obj types.Object) bool {
	if obj.Pkg() == nil {
		return false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return !types.IsInterface(recv.Type())
		}
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// walk marks everything reachable from from. A reached named type also
// reaches its methods that satisfy any of ifaces.
func (g *graph) walk(from []types.Object, ifaces []*types.Interface) {
	work := append([]types.Object(nil), from...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if g.reached[obj] {
			continue
		}
		g.reached[obj] = true
		work = append(work, g.edges[obj]...)
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					work = append(work, obj)
				}
			}
		}
	}
}

// keyOf names obj as keepers do.
func keyOf(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = types.Unalias(t).(*types.Named).Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}
