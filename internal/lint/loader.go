package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one type-checked package of the module under analysis.
// Only non-test files are loaded: test code is exempt from every
// analyzer, and `go test -race ./...` covers its concurrency.
type Package struct {
	// Path is the import path, e.g. "trafficdiff/internal/stats".
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal imports resolve recursively
// through the loader itself, and standard-library imports resolve
// through compiled export data from the go build cache (falling back
// to the compiler's source importer when the go command is
// unavailable).
//
// The loader is safe for concurrent use. LoadAll parses every package
// in parallel and type-checks them concurrently in dependency order,
// so a full-module load scales with GOMAXPROCS instead of walking the
// import graph one package at a time.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string

	// stdMu serializes the underlying importer: neither the gc
	// export-data importer nor the source importer is documented safe
	// for concurrent use. stdCache memoizes completed imports so the
	// steady state never touches the lock-protected importer at all.
	stdMu    sync.Mutex
	std      types.Importer
	stdCache sync.Map // import path -> *types.Package

	mu      sync.Mutex
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at moduleRoot
// (the directory containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: abs,
		modulePath: modPath,
		std:        newStdImporter(fset, abs),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// newStdImporter builds the standard-library importer. The fast path
// reads compiled export data out of the go build cache (one `go list
// -export` invocation enumerates it), which resolves a package like
// net/http in microseconds instead of type-checking its sources — the
// dominant cost of a lint run before v2. When the go command is
// missing or fails, the zero-dependency source importer remains the
// fallback.
func newStdImporter(fset *token.FileSet, dir string) types.Importer {
	exports, err := stdExportData(dir)
	if err != nil {
		return importer.ForCompiler(fset, "source", nil)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// stdExportData maps every standard-library import path to its export
// data file in the build cache.
func stdExportData(dir string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "std")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if ok && file != "" {
			exports[path] = file
		}
	}
	if len(exports) == 0 {
		return nil, fmt.Errorf("lint: go list -export returned no export data")
	}
	return exports, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// ModuleRoot returns the absolute directory containing go.mod.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// Fset returns the file set shared by every loaded package.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// parsedPkg is one package's sources between the parse and type-check
// stages of LoadAll.
type parsedPkg struct {
	path  string
	dir   string
	files []*ast.File
	// deps lists module-internal imports (edges of the scheduling DAG).
	deps []string
	err  error
}

// LoadAll loads every package under the module root, skipping testdata
// trees and hidden directories. Packages come back sorted by import
// path so analysis output is deterministic.
//
// The load runs in two concurrent stages: every package's sources are
// parsed in parallel (token.FileSet is synchronized), then packages
// are type-checked by a worker pool in dependency order — a package
// starts the moment its module-internal imports are done, so
// independent subtrees of the import graph check simultaneously.
func (l *Loader) LoadAll() ([]*Package, error) {
	paths, dirs, err := l.discover()
	if err != nil {
		return nil, err
	}

	// Stage 1: parse all packages in parallel.
	parsed := make([]*parsedPkg, len(paths))
	var wg sync.WaitGroup
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parsed[i] = l.parseDir(paths[i], dirs[i])
		}(i)
	}
	wg.Wait()
	byPath := map[string]*parsedPkg{}
	for _, p := range parsed {
		if p.err != nil {
			return nil, p.err
		}
		byPath[p.path] = p
	}

	// Stage 2: type-check in dependency order with a worker pool.
	if err := l.checkAll(parsed, byPath); err != nil {
		return nil, err
	}

	out := make([]*Package, 0, len(parsed))
	l.mu.Lock()
	for _, p := range parsed {
		out = append(out, l.pkgs[p.path])
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// discover walks the module tree and returns every package's import
// path and directory, sorted by path.
func (l *Loader) discover() (paths, dirs []string, err error) {
	seen := map[string]bool{}
	err = filepath.WalkDir(l.moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			return err
		}
		ip := l.modulePath
		if rel != "." {
			ip = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		if !seen[ip] {
			seen[ip] = true
			paths = append(paths, ip)
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Sort(&pathDirSort{paths, dirs})
	return paths, dirs, nil
}

// pathDirSort sorts parallel path/dir slices by path.
type pathDirSort struct{ paths, dirs []string }

func (s *pathDirSort) Len() int           { return len(s.paths) }
func (s *pathDirSort) Less(i, j int) bool { return s.paths[i] < s.paths[j] }
func (s *pathDirSort) Swap(i, j int) {
	s.paths[i], s.paths[j] = s.paths[j], s.paths[i]
	s.dirs[i], s.dirs[j] = s.dirs[j], s.dirs[i]
}

// parseDir parses every non-test .go file of one package directory and
// records its module-internal imports.
func (l *Loader) parseDir(path, dir string) *parsedPkg {
	p := &parsedPkg{path: path, dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		p.err = err
		return p
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue // build constraints, e.g. tensor's per-architecture files
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			p.err = err
			return p
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		p.err = fmt.Errorf("lint: no buildable Go files in %s", dir)
		return p
	}
	sort.Slice(p.files, func(i, j int) bool {
		return l.fset.File(p.files[i].Pos()).Name() < l.fset.File(p.files[j].Pos()).Name()
	})
	depSet := map[string]bool{}
	for _, f := range p.files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ip == l.modulePath || strings.HasPrefix(ip, l.modulePath+"/") {
				depSet[ip] = true
			}
		}
	}
	for ip := range depSet {
		p.deps = append(p.deps, ip)
	}
	sort.Strings(p.deps)
	return p
}

// checkAll type-checks every parsed package with a worker pool,
// releasing each package the moment its module-internal deps finish.
func (l *Loader) checkAll(parsed []*parsedPkg, byPath map[string]*parsedPkg) error {
	// Dependency bookkeeping. Deps outside the discovered set (e.g. a
	// fixture importing a module package when only fixtures are loaded)
	// type-check on demand through Load inside the worker.
	waiting := map[string]int{}
	dependents := map[string][]string{}
	for _, p := range parsed {
		for _, dep := range p.deps {
			if _, known := byPath[dep]; known {
				waiting[p.path]++
				dependents[dep] = append(dependents[dep], p.path)
			}
		}
	}
	ready := make(chan *parsedPkg, len(parsed))
	for _, p := range parsed {
		if waiting[p.path] == 0 {
			ready <- p
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     int
		closed   bool
	)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(parsed) {
		workers = len(parsed)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ready {
				_, err := l.check(p.path, p.dir, p.files)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				done++
				if err == nil {
					for _, dep := range dependents[p.path] {
						waiting[dep]--
						if waiting[dep] == 0 {
							ready <- byPath[dep]
						}
					}
				}
				// Close when everything finished or an error makes the
				// remaining packages unreachable.
				if !closed && (done == len(parsed) || firstErr != nil) {
					closed = true
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if done != len(parsed) {
		return fmt.Errorf("lint: import cycle among module packages")
	}
	return nil
}

// Load type-checks the package at the given module-internal import
// path, loading its module-internal dependencies first. Used for
// single-package loads (fixture tests); LoadAll is the parallel path.
func (l *Loader) Load(path string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if l.loading[path] {
		l.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, path)
		l.mu.Unlock()
	}()

	dir := l.moduleRoot
	if path != l.modulePath {
		rel, ok := strings.CutPrefix(path, l.modulePath+"/")
		if !ok {
			return nil, fmt.Errorf("lint: %s is outside module %s", path, l.modulePath)
		}
		dir = filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
	}
	parsed := l.parseDir(path, dir)
	if parsed.err != nil {
		return nil, parsed.err
	}
	return l.check(path, dir, parsed.files)
}

// check type-checks one parsed package and caches it. Concurrent
// checks of distinct packages are safe: the file set is synchronized,
// completed dependency packages are immutable, and the stdlib importer
// is serialized behind its own lock.
func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[path]; ok {
		l.mu.Unlock()
		return p, nil
	}
	l.mu.Unlock()

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.mu.Lock()
	if prev, ok := l.pkgs[path]; ok {
		// Another goroutine finished first; keep its result so every
		// importer sees one canonical *types.Package per path.
		p = prev
	} else {
		l.pkgs[path] = p
	}
	l.mu.Unlock()
	return p, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if cached, ok := l.stdCache.Load(path); ok {
		return cached.(*types.Package), nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	if cached, ok := l.stdCache.Load(path); ok {
		return cached.(*types.Package), nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.stdCache.Store(path, pkg)
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
