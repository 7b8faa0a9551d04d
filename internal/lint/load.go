package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked source package of the program under analysis.
type Package struct {
	Path  string // import path ("ccnic/internal/sim")
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
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
	Standard   bool
	Export     string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load builds a Program for the module packages matching patterns
// (e.g. "./..."), resolved from dir. Only non-test Go files are loaded —
// the invariants the suite enforces are production-code properties, and
// tests legitimately use wall clocks and goroutines.
//
// Dependencies outside the module (the standard library) are imported from
// compiler export data, which `go list -export` produces from the local
// build cache; the loader therefore needs no network access.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	srcs, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return typecheck(srcs, exports)
}

// goList runs the go list query the loader is built on, from dir, and splits
// its output into in-module source packages and out-of-module export-data
// paths.
func goList(dir string, patterns []string) ([]*listedPkg, map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Standard,Export,GoFiles,Imports,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
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
	var exports map[string]string
	if len(p.Imports) > 0 {
		if _, exports, err = goList("", p.Imports); err != nil {
			return nil, err
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
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir}
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
