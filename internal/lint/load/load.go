// Package load parses and type-checks packages for distlint without any
// dependency outside the standard library. Standard-library imports are
// type-checked from GOROOT source via go/importer's source importer;
// module-local imports (webcluster/...) are resolved against the module
// root and loaded recursively. Everything is cached per Loader, so a
// whole-tree lint run pays the standard-library cost once.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	Fset *token.FileSet
	// Files holds the parsed syntax trees, sorted by file name.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads packages with a shared FileSet and package cache.
// Construct with NewLoader.
type Loader struct {
	fset       *token.FileSet
	std        types.ImporterFrom
	modulePath string
	moduleRoot string
	pkgs       map[string]*Package
	stdCache   map[string]*types.Package
}

// NewLoader returns a loader for the module rooted at moduleRoot with
// the given module path (the first line of go.mod).
func NewLoader(moduleRoot, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		modulePath: modulePath,
		moduleRoot: moduleRoot,
		pkgs:       make(map[string]*Package),
		stdCache:   make(map[string]*types.Package),
	}
}

// NewLoaderAt walks up from dir to the enclosing go.mod and returns a
// loader for that module. Tests use it so fixtures can import module
// packages regardless of the working directory go test chose.
func NewLoaderAt(dir string) (*Loader, error) {
	root, path, err := FindModule(dir)
	if err != nil {
		return nil, err
	}
	return NewLoader(root, path), nil
}

// FindModule walks up from dir to the nearest go.mod, returning the
// module root directory and module path.
func FindModule(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Cached returns the already-loaded package for path, nil when the
// loader has not seen it. The analysis module uses this as its lazy
// dependency source: any module package pulled in transitively by the
// type-checker is available to the summaries without a second load.
func (l *Loader) Cached(path string) *Package { return l.pkgs[path] }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load from
// the module tree, everything else from GOROOT source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if p, ok := l.stdCache[path]; ok {
		return p, nil
	}
	p, err := l.std.ImportFrom(path, dir, mode)
	if err != nil {
		return nil, fmt.Errorf("load: importing %q: %w", path, err)
	}
	l.stdCache[path] = p
	return p, nil
}

// LoadDir parses and type-checks the package in dir under importPath.
// Results are cached by import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and _GOOS/_GOARCH
		// name suffixes) for the host platform, so platform-split files
		// like the distributor's listen_linux.go/listen_other.go pair
		// don't load as a redeclaration.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		// Files of another package in the same directory (a stray main,
		// an ignored generator) are not part of this one.
		if len(files) > 0 && f.Name.Name != files[0].Name.Name {
			continue
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", importPath, err)
	}
	p := &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = p
	return p, nil
}
