package cloudmcp

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// mapRangeAllowlist holds every range over a map in non-test code under
// internal/, each with the reason its iteration order cannot reach an
// artifact. Go randomizes map order on every range, so a new one either
// sorts its keys first or earns an entry here. Keys are "pkg/file.go:Func"
// (methods as "Recv.Func", package-level code as "-"), with "#2", "#3"
// for a function's later map ranges; a key that names no site fails the
// test, so the list cannot outlive its entries.
var mapRangeAllowlist = map[string]string{
	"analysis/analysis.go:OpMix":          "collects the kinds ops.Kinds leaves out, then sorts them",
	"analysis/analysis.go:PerOrg":         "builds the rows that sort.Slice then orders by ops and org",
	"api/server.go:Server.sweepLocked":    "deletes expired sessions; nothing it returns or writes depends on the order",
	"core/configfile.go:ConfigFile.Apply": "collects the cost-override names, then sorts them",
	"faults/faults.go:Layer.validate":     "collects the per-kind names, then sorts them",
	"policy/policy.go:Names":              "collects the set names, then sorts them",
}

// TestNoNewMapRanges type-checks every package under internal/ from
// source and fails for each range over a map that mapRangeAllowlist does
// not name.
func TestNoNewMapRanges(t *testing.T) {
	sites, err := mapRanges("internal")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range sites {
		seen[s.key] = true
		if _, ok := mapRangeAllowlist[s.key]; !ok {
			t.Errorf("%s: range over a map (%s): sort its keys, or allowlist %q with a reason", s.pos, s.typ, s.key)
		}
	}
	for key := range mapRangeAllowlist { // order only affects error order
		if !seen[key] {
			t.Errorf("mapRangeAllowlist names %q, which ranges over no map", key)
		}
	}
}

type mapRange struct {
	key string
	pos token.Position
	typ types.Type
}

// mapRanges lists the ranges over a map in the non-test files of every
// package under root, in file and source order.
func mapRanges(root string) ([]mapRange, error) {
	m, err := loadModule()
	if err != nil {
		return nil, err
	}
	var sites []mapRange
	for _, pkg := range m.pkgs {
		for _, f := range pkg.files {
			rel, err := filepath.Rel(root, m.fset.File(f.Pos()).Name())
			if err != nil || strings.HasPrefix(rel, "..") {
				continue
			}
			count := map[string]int{}
			for _, decl := range f.Decls {
				fn := "-"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
					if fd.Recv != nil {
						fn = recvType(fd.Recv.List[0].Type) + "." + fn
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					typ := m.info.TypeOf(rs.X)
					if _, isMap := typ.Underlying().(*types.Map); !isMap {
						return true
					}
					count[fn]++
					key := filepath.ToSlash(rel) + ":" + fn
					if c := count[fn]; c > 1 {
						key += fmt.Sprintf("#%d", c)
					}
					sites = append(sites, mapRange{key, m.fset.Position(rs.Pos()), typ})
					return true
				})
			}
		}
	}
	return sites, nil
}

// module holds every package under internal/, cmd/, examples/ and
// bench/, type-checked from source without its test files. TestNoNewMapRanges
// and TestNoTestOnlySurface share one load.
type module struct {
	fset *token.FileSet
	info *types.Info
	pkgs []srcPackage // in directory walk order
}

type srcPackage struct {
	dir   string
	files []*ast.File
}

var loadModule = sync.OnceValues(func() (*module, error) {
	fset := token.NewFileSet()
	im := &srcImporter{fset: fset, std: importer.Default(),
		pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
	m := &module{fset: fset, info: im.info}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files, err := im.check(dir)
			if err != nil {
				return err
			}
			if len(files) > 0 {
				m.pkgs = append(m.pkgs, srcPackage{filepath.ToSlash(dir), files})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return m, nil
})

// srcImporter type-checks this module's packages from source and takes
// the standard library's from the toolchain's export data.
type srcImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "cloudmcp/")
	if !ok {
		return im.std.Import(path)
	}
	if _, err := im.check(filepath.FromSlash(dir)); err != nil {
		return nil, err
	}
	return im.pkgs[path], nil
}

// check type-checks the package in dir once and returns its non-test
// files (none for a directory without one).
func (im *srcImporter) check(dir string) ([]*ast.File, error) {
	path := "cloudmcp/" + filepath.ToSlash(dir)
	if files, ok := im.files[path]; ok {
		return files, nil
	}
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		im.files[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path], im.files[path] = pkg, files
	return files, nil
}
