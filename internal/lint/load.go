package lint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
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
	"sync"
)

// Package is one type-checked source package of the program under analysis.
type Package struct {
	Path  string // import path ("ccnic/internal/sim")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	imports []string
}

// Program is the set of module packages loaded for one lint run, with a
// shared FileSet and fully resolved type information. Analyzers that need a
// whole-program view (yieldlint's call graph, alloclint's cross-package
// annotation lookup) reach the other packages through it.
type Program struct {
	Fset   *token.FileSet
	Pkgs   []*Package // dependency order
	byPath map[string]*Package

	annots map[*ast.File]*fileAnnots // lazy, see annot.go
	yields map[*types.Func]bool      // lazy, see callgraph.go
	cg     *CallGraph                // lazy, see callgraph.go
	funcs  map[*types.Func]*ast.FuncDecl
	owns   *ownFacts // lazy, see ownlint.go
}

// PackageOf returns the loaded package with the given import path, or nil.
func (pr *Program) PackageOf(path string) *Package { return pr.byPath[path] }

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// progCache shares loaded Programs within the process, keyed by the content
// hash of the module sources (see cacheKey). Analyzer runs are read-only
// over the Program, and the lazy indexes (annotations, call graph, yield
// set, ownership facts) are deterministic functions of the same sources, so
// two sequential loads of an unchanged tree may safely return one Program.
// Programs are NOT safe for concurrent mutation; callers that run analyzers
// from multiple goroutines must load separate copies.
var progCache = struct {
	sync.Mutex
	m map[string]*Program
}{m: map[string]*Program{}}

// Load builds a Program for the module packages matching patterns
// (e.g. "./..."), resolved from dir. Only non-test Go files are loaded —
// the invariants the suite enforces are production-code properties, and
// tests legitimately use wall clocks and goroutines.
//
// Dependencies outside the module (the standard library) are imported from
// compiler export data, which `go list -export` produces from the local
// build cache; the loader therefore needs no network access.
//
// Loads are cached at two levels, both keyed by the sha256 of go.mod,
// go.sum, and every non-test Go file under dir and the directories its
// go.mod replaces modules with (see cacheKey): an in-process Program cache
// (so a test binary that lints the module twice type-checks it once), and
// an on-disk cache of the `go list` output under <dir>/.lintcache (so a
// warm `make lint` skips the go-list subprocess, the slowest single step).
// A cache entry whose recorded export-data files have been pruned from the
// Go build cache is discarded and regenerated.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	key, _ := cacheKey(dir, patterns)

	if key != "" {
		progCache.Lock()
		pr := progCache.m[key]
		progCache.Unlock()
		if pr != nil {
			return pr, nil
		}
	}

	out, cached := readListCache(dir, key)
	if !cached {
		var err error
		if out, err = runGoList(dir, patterns); err != nil {
			return nil, err
		}
	}
	srcs, exports, err := parseGoList(out)
	if cached && (err != nil || !exportsValid(exports)) {
		// Stale disk cache (pruned build cache, changed toolchain): fall
		// back to a fresh go list run.
		cached = false
		if out, err = runGoList(dir, patterns); err != nil {
			return nil, err
		}
		srcs, exports, err = parseGoList(out)
	}
	if err != nil {
		return nil, err
	}
	if !cached && key != "" {
		writeListCache(dir, key, out)
	}

	prog, err := typecheck(srcs, exports)
	if err != nil {
		return nil, err
	}
	if key != "" {
		progCache.Lock()
		progCache.m[key] = prog
		progCache.Unlock()
	}
	return prog, nil
}

// runGoList executes the go list query the loader is built on.
func runGoList(dir string, patterns []string) ([]byte, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Standard,Export,GoFiles,Imports,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	return out, nil
}

// parseGoList splits go list output into in-module source packages and
// out-of-module export-data paths.
func parseGoList(out []byte) ([]*listedPkg, map[string]string, error) {
	exports := map[string]string{}
	var srcs []*listedPkg
	seen := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		// A main package with a default.pgo profile makes `go list -deps`
		// report its dependencies as PGO-specialized variants named
		// "path [main/pkg]". The source and API are those of the base
		// package: normalize the path and dedupe, so the loader sees one
		// copy of each package and export-data lookups hit.
		if i := strings.IndexByte(p.ImportPath, ' '); i >= 0 {
			p.ImportPath = p.ImportPath[:i]
		}
		for j, imp := range p.Imports {
			if i := strings.IndexByte(imp, ' '); i >= 0 {
				p.Imports[j] = imp[:i]
			}
		}
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		if p.Module != nil && !p.Standard {
			q := p
			srcs = append(srcs, &q)
		} else if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return srcs, exports, nil
}

// exportsValid reports whether every recorded export-data file still exists.
// The paths point into the Go build cache, which `go clean -cache` or cache
// trimming can empty out from under a disk-cached go list output.
func exportsValid(exports map[string]string) bool {
	for _, path := range exports {
		if _, err := os.Stat(path); err != nil {
			return false
		}
	}
	return true
}

// cacheKey hashes everything that determines a load's result: the patterns,
// go.mod and go.sum, and the path and content of every non-test Go file
// under dir and under each directory dir's go.mod replaces a module with
// (cmd/ccperf's `replace ccnic => ../..`). Hidden directories, testdata (go
// list never reads it), and the cache directory itself are skipped. An empty
// key disables caching.
func cacheKey(dir string, patterns []string) (string, error) {
	h := sha256.New()
	for _, p := range patterns {
		fmt.Fprintf(h, "pat\x00%s\x00", p)
	}
	for i, root := range append([]string{dir}, localReplaces(dir)...) {
		fmt.Fprintf(h, "root\x00%d\x00", i)
		if err := hashTree(h, root); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashTree writes the path and content of every file under dir that
// cacheKey covers to h.
func hashTree(h io.Writer, dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != dir && (strings.HasPrefix(name, ".") || name == "testdata" || name == lintCacheDir) {
				return filepath.SkipDir
			}
			return nil
		}
		isMod := name == "go.mod" || name == "go.sum"
		if !isMod && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			rel = path
		}
		fmt.Fprintf(h, "file\x00%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
}

// localReplaces returns the directories dir's go.mod replaces modules with
// (`replace m => ../..`, in line or block form): their sources are loaded
// too, so a cached go list of dir goes stale when they change.
func localReplaces(dir string) []string {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil
	}
	var dirs []string
	for _, line := range strings.Split(string(data), "\n") {
		_, target, _ := strings.Cut(line, "=>")
		f := strings.Fields(target)
		if len(f) != 1 { // absent, or a module path and version
			continue
		}
		switch p := f[0]; {
		case filepath.IsAbs(p):
			dirs = append(dirs, p)
		case strings.HasPrefix(p, "."):
			dirs = append(dirs, filepath.Join(dir, p))
		}
	}
	return dirs
}

// lintCacheDir is the on-disk cache directory, relative to the load root.
const lintCacheDir = ".lintcache"

// readListCache returns the cached go list output for key, if present.
func readListCache(dir, key string) ([]byte, bool) {
	if key == "" {
		return nil, false
	}
	out, err := os.ReadFile(listCachePath(dir, key))
	return out, err == nil
}

// writeListCache stores the go list output for key and prunes entries for
// other keys (stale trees). Failures are ignored: the cache is an
// optimization, never a correctness dependency.
func writeListCache(dir, key string, out []byte) {
	cacheDir := filepath.Join(dir, lintCacheDir)
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return
	}
	path := listCachePath(dir, key)
	tmp, err := os.CreateTemp(cacheDir, "golist-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(out)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	ents, err := os.ReadDir(cacheDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "golist-") && strings.HasSuffix(name, ".json") &&
			filepath.Join(cacheDir, name) != path {
			os.Remove(filepath.Join(cacheDir, name))
		}
	}
}

func listCachePath(dir, key string) string {
	return filepath.Join(dir, lintCacheDir, "golist-"+key[:16]+".json")
}

// LoadDir builds a single-package Program from the Go files in dir, which
// need not belong to any module. It is the fixture loader for the analyzer
// tests: fixtures may import only the standard library.
func LoadDir(dir string) (*Program, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &listedPkg{ImportPath: "fixture/" + filepath.Base(dir), Dir: dir}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			p.GoFiles = append(p.GoFiles, e.Name())
		}
	}
	if len(p.GoFiles) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	// Collect the fixture's imports so one `go list -export` resolves them.
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				p.Imports = append(p.Imports, path)
			}
		}
	}
	exports := map[string]string{}
	if len(p.Imports) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Standard"}, p.Imports...)
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list %v: %v", p.Imports, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var dp listedPkg
			if err := dec.Decode(&dp); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if dp.Export != "" {
				exports[dp.ImportPath] = dp.Export
			}
		}
	}
	return typecheck([]*listedPkg{p}, exports)
}

// typecheck parses and type-checks srcs in dependency order, importing
// out-of-module packages from export data.
func typecheck(srcs []*listedPkg, exports map[string]string) (*Program, error) {
	prog := &Program{
		Fset:   token.NewFileSet(),
		byPath: map[string]*Package{},
		annots: map[*ast.File]*fileAnnots{},
		funcs:  map[*types.Func]*ast.FuncDecl{},
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	gcImp := importer.ForCompiler(prog.Fset, "gc", lookup)

	for _, lp := range topoSort(srcs) {
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, imports: lp.Imports}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if dep := prog.byPath[path]; dep != nil {
					return dep.Types, nil
				}
				return gcImp.Import(path)
			}),
		}
		tp, err := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, pkg.Info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
		}
		pkg.Types = tp
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.byPath[lp.ImportPath] = pkg
	}
	prog.indexFuncs()
	return prog, nil
}

// topoSort orders packages so every in-module dependency precedes its
// importers (imports outside the set are ignored).
func topoSort(srcs []*listedPkg) []*listedPkg {
	byPath := map[string]*listedPkg{}
	for _, p := range srcs {
		byPath[p.ImportPath] = p
	}
	var order []*listedPkg
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *listedPkg)
	visit = func(p *listedPkg) {
		if state[p.ImportPath] != 0 {
			return
		}
		state[p.ImportPath] = 1
		for _, imp := range p.Imports {
			if dep := byPath[imp]; dep != nil {
				visit(dep)
			}
		}
		state[p.ImportPath] = 2
		order = append(order, p)
	}
	paths := make([]string, 0, len(srcs))
	for _, p := range srcs {
		paths = append(paths, p.ImportPath)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(byPath[path])
	}
	return order
}

// indexFuncs maps every declared function and method to its syntax, for
// cross-package body and annotation lookups.
func (pr *Program) indexFuncs() {
	for _, pkg := range pr.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					pr.funcs[fn] = fd
				}
			}
		}
	}
}

// DeclOf returns the syntax of fn if it was declared in a loaded package.
func (pr *Program) DeclOf(fn *types.Func) *ast.FuncDecl { return pr.funcs[fn] }

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
