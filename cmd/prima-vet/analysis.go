package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line: form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one table-driven check. Adding a rule is one more
// struct literal in the analyzers slice. Per-package analyzers set
// Run; interprocedural analyzers set RunProgram and see the whole
// loaded module at once (call graph, markers, every package).
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Package) []Finding
	RunProgram func(*Program) []Finding
}

// analyzers is the registry prima-vet runs, in order.
var analyzers = []*Analyzer{
	lockcheckAnalyzer,
	purityAnalyzer,
	errcheckAnalyzer,
	codecpairAnalyzer,
	lockorderAnalyzer,
	phileakAnalyzer,
	arenasafeAnalyzer,
	atomicsafeAnalyzer,
	goleakAnalyzer,
	chanuseAnalyzer,
}

// selectAnalyzers resolves a -run list ("lockorder,phileak") against
// the registry. Unknown names are an error, never a silent no-op.
func selectAnalyzers(runList string) ([]*Analyzer, error) {
	if runList == "" {
		return analyzers, nil
	}
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("prima-vet: unknown analyzer %q (see -list)", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("prima-vet: -run selected no analyzers")
	}
	return out, nil
}

// runSelected applies the chosen per-package analyzers to one package.
func runSelected(selected []*Analyzer, p *Package) []Finding {
	var out []Finding
	for _, a := range selected {
		if a.Run != nil {
			out = append(out, a.Run(p)...)
		}
	}
	sortFindings(out)
	return out
}

// runProgramAnalyzers applies the chosen interprocedural analyzers to
// the whole program, keeping only findings inside requested packages.
func runProgramAnalyzers(selected []*Analyzer, prog *Program) []Finding {
	var out []Finding
	for _, a := range selected {
		if a.RunProgram != nil {
			out = append(out, prog.reported(a.RunProgram(prog))...)
		}
	}
	sortFindings(out)
	return out
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// ---- shared AST/type helpers ----

// funcDecls yields every function declaration in the package's
// non-test files.
func funcDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// recvIdent returns the receiver identifier of a method, or nil.
func recvIdent(fd *ast.FuncDecl) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// recvTypeName returns the name of the receiver's base type ("Log"
// for *Log), or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// isPkgCall reports whether call is pkgName.funcName(...) resolved
// through the file's imports (AST level; works even when type
// information is incomplete).
func isPkgCall(p *Package, call *ast.CallExpr, pkgPath, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path() == pkgPath
		}
		return false
	}
	// Fallback without type info: match the default package name.
	base := pkgPath
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return id.Name == base
}

// usesImport reports whether any file imports the given path.
func usesImport(p *Package, path string) bool {
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == path {
				return true
			}
		}
	}
	return false
}

// isMapType reports whether the expression has map type, using type
// information when present and falling back to a make(map[...]) or
// composite-literal syntactic check.
func isMapType(p *Package, e ast.Expr) bool {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	return false
}

// exprString renders a (small) expression for messages.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	default:
		return "expr"
	}
}
