package cloudmcp

import (
	"go/ast"
	"go/types"
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
	"core.E18Grid":      "cmd/mcpsweep's TestGridReproducesE18 compares the command-line grid to it",
	"sim.Proc.Name":     "bench/ passes process names to Env.Go; the name goes with that parameter in a change that may edit bench/",
	"sim.Env.Pending":   "the kernel's pending-event count, the public way to watch an event cascade from outside the kernel",
	"stats.Moments.Min": "accumulator API: Moments reports every summary it keeps, as Max, Mean and Count are used",
	"stats.Moments.Sum": "accumulator API: Moments reports every summary it keeps, as Max, Mean and Count are used",
}

// TestNoTestOnlySurface fails for every exported function or method
// declared in a non-test file under internal/ that no non-test file of
// internal/, cmd/, examples/ or bench/ uses outside the declaration's
// own body. Such a name is surface that only tests reach: delete it, let
// the test read the package's state, or add it to surfaceAllowlist with
// a reason. internal/testfix (test support) and internal/queuetheory
// (the analytic reference the queueing tests compare against) are not
// scanned.
//
// Uses are resolved by go/types, so a dead method does not pass on the
// strength of another declaration with the same name. A method counts as
// used when a call through an interface of this module reaches it: some
// used interface method has its name, and its type implements that
// interface.
func TestNoTestOnlySurface(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	used := map[*types.Func]bool{}
	var ifaceUses []*types.Func // used methods of interface types
	for _, pkg := range m.pkgs {
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = m.info.Defs[fd.Name].(*types.Func)
					if fd.Name.IsExported() && scanned(m.fset.File(f.Pos()).Name()) && !(fd.Recv != nil && stdlibMethods[fd.Name.Name]) {
						key := f.Name.Name + "." + fd.Name.Name
						if fd.Recv != nil {
							key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
						}
						decls = append(decls, decl{key, self})
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := m.info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					fn = fn.Origin()
					used[fn] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceUses = append(ifaceUses, fn)
					}
					return true
				})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	// viaInterface reports whether a call through a used interface
	// method can reach method fn.
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		for _, im := range ifaceUses {
			iface, _ := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if im.Name() == fn.Name() && iface != nil &&
				(types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := surfaceAllowlist[d.key]
		switch live := used[d.fn] || viaInterface(d.fn); {
		case live && allowed:
			t.Errorf("%s: allowlisted, but a non-test file uses it", d.key)
		case !live && !allowed:
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s: exported, but no non-test file uses it outside its own declaration", k)
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
