package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	Path      string // import path ("repro/internal/audit" or a bare fixture name)
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File // non-test files, type-checked
	TestFiles []*ast.File // _test.go files, parsed only (codecpair needs names)
	Pkg       *types.Package
	Info      *types.Info
	// TypeErrors collects type-checker complaints; analysis proceeds
	// best-effort so a single broken file does not hide every finding.
	TypeErrors []error
}

// Loader resolves and type-checks packages of one Go module without
// external tooling: module-internal imports are located under the
// module root, everything else (the standard library) comes from the
// source importer.
type Loader struct {
	Root   string // module root directory (contains go.mod)
	Module string // module path from go.mod
	Fset   *token.FileSet

	std   types.Importer
	cache map[string]*Package
}

// NewLoader builds a loader rooted at the go.mod nearest to dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: module,
		Fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*Package),
	}, nil
}

// findModule walks upward from dir to the first go.mod.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("prima-vet: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("prima-vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Expand resolves command-line patterns into package directories.
// Supported patterns: "./..." (every package under the module root),
// "dir/..." and plain directories.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base := pat
		recursive := false
		if strings.HasSuffix(pat, "...") {
			recursive = true
			base = strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = l.Root
			}
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if !recursive {
			if hasGoFiles(abs) {
				add(abs)
			} else {
				return nil, fmt.Errorf("prima-vet: no Go files in %s", pat)
			}
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
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

// importPath maps a directory under the module root to its import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// Load parses and type-checks the package in dir.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(abs, l.importPath(abs))
}

func (l *Loader) load(dir, path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset}
	l.cache[path] = p // pre-register: packages never import cyclically
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, perr
		}
		if strings.HasSuffix(name, "_test.go") {
			p.TestFiles = append(p.TestFiles, f)
		} else {
			p.Files = append(p.Files, f)
		}
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("prima-vet: no non-test Go files in %s", dir)
	}
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			return l.importPkg(ipath)
		}),
		Error: func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, p.Files, p.Info)
	p.Pkg = pkg
	return p, nil
}

// importPkg resolves an import path for the type checker.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		p, err := l.load(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		if p.Pkg == nil {
			return nil, fmt.Errorf("prima-vet: %s did not type-check", path)
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
