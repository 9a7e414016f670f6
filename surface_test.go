package cloudmcp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names that a standard-library interface
// calls (fmt.Stringer, error, encoding.TextMarshaler, json.Marshaler,
// http.Handler, rand.Source, …): the call happens inside the standard
// library, so no file of this module names it.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Int63": true, "Seed": true,
}

// surfaceAllowlist holds the exported names that stay although only
// tests reach them, each with the reason it stays. Keys are "pkg.Name"
// for functions and "pkg.Type.Name" for methods; a key that names no
// declaration fails the test, so the list cannot outlive its entries.
var surfaceAllowlist = map[string]string{
	"core.E18Grid":  "cmd/mcpsweep's TestGridReproducesE18 compares the command-line grid to it",
	"sim.Proc.Name": "bench/ passes process names to Env.Go; the name goes with that parameter in a change that may edit bench/",
}

// TestNoTestOnlySurface fails for every exported function or method
// declared in a non-test file under internal/ whose name appears in no
// non-test file of internal/, cmd/, examples/ or bench/ other than at a
// declaration. Such a name is surface that only tests reach: delete it,
// let the test read the package's state, or add it to surfaceAllowlist
// with a reason. internal/testfix (test support) and
// internal/queuetheory (the analytic reference the queueing tests
// compare against) are not scanned.
//
// Matching is by name, not by type: it cannot tell two declarations
// with the same name apart, so a dead method passes while anything
// else of that name is referenced (a method Cloud.RunAll would pass
// on the strength of a call to the function RunAll).
func TestNoTestOnlySurface(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	refs := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declIdents := map[*ast.Ident]bool{}
			for _, fd := range f.Decls {
				fd, ok := fd.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declIdents[fd.Name] = true
				if !fd.Name.IsExported() || !scanned(path) {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					if stdlibMethods[fd.Name.Name] {
						continue
					}
					key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{key, fd.Name.Name})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
					refs[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		if !refs[d.name] {
			if _, ok := surfaceAllowlist[d.key]; !ok {
				unused = append(unused, d.key)
			}
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s: exported, but no non-test file outside its declaration names it", k)
	}
	for k := range surfaceAllowlist {
		if !declared[k] {
			t.Errorf("%s: allowlisted, but no longer declared", k)
		}
	}
}

// scanned reports whether declarations in path are checked.
func scanned(path string) bool {
	path = filepath.ToSlash(path)
	return strings.HasPrefix(path, "internal/") &&
		!strings.HasPrefix(path, "internal/testfix/") &&
		!strings.HasPrefix(path, "internal/queuetheory/")
}

// recvType names a method's receiver type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
