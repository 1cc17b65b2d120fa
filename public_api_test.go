package matscale_test

import (
	"flag"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite testdata/public_api.txt from the current package")

// publicAPI lists the root package's exported surface, one line per
// declaration, sorted: each exported const, var, func and type with its
// type or signature, and each exported method of every exported type —
// aliased types included, since their methods are public through the
// alias.
func publicAPI(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["matscale"].Files {
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("matscale", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var lines []string
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		lines = append(lines, types.ObjectString(obj, qual))
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < mset.Len(); i++ {
			if m := mset.At(i).Obj(); m.Exported() {
				lines = append(lines, "method "+name+"."+m.Name()+" "+types.TypeString(m.Type(), qual))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestPublicAPISurface compares the root package's exported surface
// with testdata/public_api.txt, so a change to the public API shows up
// as a diff of that file. Regenerate it with
//
//	go test -run TestPublicAPISurface -update-api .
func TestPublicAPISurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its dependencies from source")
	}
	const golden = "testdata/public_api.txt"
	got := publicAPI(t)
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("public API differs from %s; review the change and rerun with -update-api\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff reports the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] < 0 {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
