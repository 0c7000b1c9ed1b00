// Package load type-checks packages for loopvet without the go/packages
// machinery: module-local packages are parsed from the repo tree, and
// standard-library imports are resolved by the stdlib's own from-source
// importer (go/importer "source"). The repo has no third-party
// dependencies, so these two roots cover everything.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader loads and caches packages. It is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet
	// ModulePath/ModuleRoot map the module's import space onto disk.
	ModulePath string
	ModuleRoot string

	ctx   build.Context
	std   types.ImporterFrom
	cache map[string]*Package
	// loading guards against import cycles.
	loading map[string]bool
}

// New returns a Loader for the module rooted at moduleRoot.
func New(modulePath, moduleRoot string) *Loader {
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.CgoEnabled = false
	return &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		ctx:        ctx,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// dirFor resolves an import path to a directory, or "" when the path is
// not module-local (i.e. should be resolved as standard library).
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	}
	return ""
}

// Load parses and type-checks the package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("load: %s is not module-local", path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    importerFunc(l.importDep),
		FakeImportC: true,
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{ImportPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// TopoOrder loads the given packages plus their module-local
// dependency closure and returns every loaded import path in
// dependency-first topological order: a package always appears after
// everything it imports (directly or transitively) that this loader
// can resolve from source. The driver builds its module-wide call
// graph over this closure. The order is deterministic: imports are
// visited in sorted order from the given roots.
func (l *Loader) TopoOrder(paths []string) ([]string, error) {
	var order []string
	seen := map[string]bool{}
	var visit func(path string) error
	visit = func(path string) error {
		if seen[path] {
			return nil
		}
		seen[path] = true
		pkg, err := l.Load(path)
		if err != nil {
			return err
		}
		var deps []string
		for _, imp := range pkg.Types.Imports() {
			if l.dirFor(imp.Path()) != "" {
				deps = append(deps, imp.Path())
			}
		}
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// importDep resolves one import encountered while type-checking.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.dirFor(path) != "" {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleRoot, 0)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
