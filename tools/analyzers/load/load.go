// Package load turns package patterns into parsed, type-checked
// packages for the repo's analyzers. It is the offline stand-in for
// golang.org/x/tools/go/packages: module-internal imports are resolved
// by walking the module tree and type-checking from source, and
// standard-library imports fall back to the compiler's source importer
// (go/importer "source"), so the whole pipeline works with no module
// cache and no network.
//
// Scope is deliberately narrow: one module, no cgo, no vendoring, the
// default build context. That is exactly this repository.
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

// Config controls a Load.
type Config struct {
	// Dir is a directory inside the module to load (defaults to ".").
	Dir string
	// FakeRoot, when set, resolves every non-stdlib import path as a
	// subdirectory of this root instead of using module resolution —
	// the analysistest fixture layout (testdata/src/<path>).
	FakeRoot string
}

// Package is one loaded package.
type Package struct {
	// PkgPath is the import path ("mmutricks/internal/ppc"), with an
	// "_test" suffix for external test packages.
	PkgPath string
	// Dir is the directory the files live in.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the result of one Load: the requested packages.
type Program struct {
	Fset *token.FileSet
	// Packages are the requested packages in deterministic order.
	Packages []*Package
}

// loader carries the shared state of one Load.
type loader struct {
	cfg        Config
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.ImporterFrom
	// pkgs caches loaded packages by cache key (path + tests variant).
	pkgs map[string]*Package
	// loading marks in-flight loads for cycle detection.
	loading map[string]bool
}

// Load resolves patterns ("./...", a directory, or an import path) and
// returns the requested packages, type-checked with their test files:
// in-package test files are merged, and an external _test package is
// returned as a separate package with an "_test" path suffix.
func Load(cfg Config, patterns ...string) (*Program, error) {
	if cfg.Dir == "" {
		cfg.Dir = "."
	}
	l := &loader{
		cfg:     cfg,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	std := importer.ForCompiler(l.fset, "source", nil)
	fromStd, ok := std.(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("load: source importer does not support ImporterFrom")
	}
	l.std = fromStd

	if cfg.FakeRoot == "" {
		root, path, err := findModule(cfg.Dir)
		if err != nil {
			return nil, err
		}
		l.moduleRoot, l.modulePath = root, path
	}

	var paths []string
	for _, pat := range patterns {
		ps, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		paths = append(paths, ps...)
	}
	sort.Strings(paths)
	paths = dedup(paths)

	prog := &Program{Fset: l.fset}
	for _, path := range paths {
		pkg, xtest, err := l.loadRequested(path)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
		if xtest != nil {
			prog.Packages = append(prog.Packages, xtest)
		}
	}
	return prog, nil
}

// findModule locates the enclosing go.mod and reads the module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", abs)
		}
	}
}

// expand turns one pattern into a list of import paths.
func (l *loader) expand(pat string) ([]string, error) {
	if l.cfg.FakeRoot != "" {
		// Fixture mode: patterns are fixture import paths, verbatim.
		return []string{pat}, nil
	}
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive, pat = true, rest
	} else if pat == "..." {
		recursive, pat = true, "."
	}
	var base string
	switch {
	case pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, ".."):
		abs, err := filepath.Abs(filepath.Join(l.cfg.Dir, pat))
		if err != nil {
			return nil, err
		}
		base = abs
	case pat == l.modulePath || strings.HasPrefix(pat, l.modulePath+"/"):
		base = filepath.Join(l.moduleRoot, strings.TrimPrefix(strings.TrimPrefix(pat, l.modulePath), "/"))
	default:
		return nil, fmt.Errorf("load: pattern %q is outside module %s", pat, l.modulePath)
	}
	if !recursive {
		path, err := l.dirImportPath(base)
		if err != nil {
			return nil, err
		}
		return []string{path}, nil
	}
	var out []string
	err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			path, err := l.dirImportPath(p)
			if err != nil {
				return err
			}
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

func (l *loader) dirImportPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("load: %s is outside module root %s", dir, l.moduleRoot)
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func dedup(paths []string) []string {
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out
}

// dirFor maps an import path to its directory.
func (l *loader) dirFor(path string) (string, bool) {
	if l.cfg.FakeRoot != "" {
		dir := filepath.Join(l.cfg.FakeRoot, filepath.FromSlash(path))
		return dir, hasGoFiles(dir)
	}
	if path == l.modulePath {
		return l.moduleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rest))
		return dir, hasGoFiles(dir)
	}
	return "", false
}

// loadRequested loads one requested package with its in-package test
// files merged and, when external test files exist, the companion
// _test package.
func (l *loader) loadRequested(path string) (pkg, xtest *Package, err error) {
	pkg, err = l.load(path, true)
	if err != nil {
		return nil, nil, err
	}
	dir, _ := l.dirFor(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("load: %s: %w", path, err)
	}
	if len(bp.XTestGoFiles) == 0 {
		return pkg, nil, nil
	}
	xtest, err = l.check(path+"_test", dir, bp.XTestGoFiles, &selfImporter{l: l, selfPath: path, self: pkg})
	if err != nil {
		return nil, nil, err
	}
	l.pkgs["x:"+path] = xtest
	return pkg, xtest, nil
}

// load loads one package variant, cached.
func (l *loader) load(path string, tests bool) (*Package, error) {
	key := path
	if tests {
		key = "t:" + path
	}
	if p, ok := l.pkgs[key]; ok {
		return p, nil
	}
	if l.loading[key] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	l.loading[key] = true
	defer func() { l.loading[key] = false }()

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("load: cannot resolve %q to a directory", path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	files := append([]string(nil), bp.GoFiles...)
	if tests {
		files = append(files, bp.TestGoFiles...)
	}
	pkg, err := l.check(path, dir, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[key] = pkg
	return pkg, nil
}

// check parses and type-checks one file set as a package.
func (l *loader) check(path, dir string, fileNames []string, imp types.ImporterFrom) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	return &Package{PkgPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// Import / ImportFrom make the loader a types.Importer for dependency
// resolution: module-internal paths load from source (without test
// files); everything else goes to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.load(path, false)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// selfImporter resolves the base package of an external test package to
// its test-augmented variant (matching the go tool, where foo_test sees
// foo compiled together with foo's in-package test files).
type selfImporter struct {
	l        *loader
	selfPath string
	self     *Package
}

func (s *selfImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *selfImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == s.selfPath {
		return s.self.Types, nil
	}
	return s.l.ImportFrom(path, srcDir, mode)
}
