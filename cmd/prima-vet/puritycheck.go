package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// puritycheck enforces determinism of the §3 coverage algebra
// (Algorithms 1–6 of the paper) and of every package that feeds it:
//
//   - functions reachable from the algorithm entry points
//     (ComputeCoverage, Coverage, EntryCoverage, Refinement, ...)
//     must not read the clock (time.Now) or use math/rand — coverage
//     and refinement results must be replayable byte-for-byte;
//   - no function in a checked package may build ordered output
//     (append inside a range-over-map) without sorting it, because
//     Go's map iteration order is deliberately randomized.
//
// The vocabulary package is checked in full: every one of its
// functions sits under the algebra.
var purityAnalyzer = &Analyzer{
	Name: "puritycheck",
	Doc:  "coverage/refinement algebra must be deterministic: no clock, no rand, no unsorted map-iteration output",
	Run:  runPuritycheck,
}

// purityRoots are the names of the paper's algorithm entry points;
// everything they (transitively, within the package) call is checked.
var purityRoots = map[string]bool{
	"ComputeCoverage":  true, // Algorithm 1
	"CompleteCoverage": true,
	"Coverage":         true,
	"CoverageDetail":   true,
	"EntryCoverage":    true,
	"Filter":           true, // Algorithm 3
	"ExtractPatterns":  true, // Algorithm 4
	"Prune":            true, // Algorithm 6
	"Refinement":       true, // Algorithm 2
	"Refine":           true,
	"Generalize":       true,
}

// purityWholePkg lists packages (by name) whose functions are all
// treated as reachable: the vocabulary is the algebra's substrate.
var purityWholePkg = map[string]bool{
	"vocab": true,
}

func runPuritycheck(p *Package) []Finding {
	decls := funcDecls(p)

	// Build the intra-package call graph by callee name. Methods are
	// resolved by bare name — an over-approximation that errs toward
	// checking more functions, which is the safe direction here.
	byName := make(map[string][]*ast.FuncDecl)
	for _, fd := range decls {
		byName[fd.Name.Name] = append(byName[fd.Name.Name], fd)
	}

	checkAll := purityWholePkg[pkgName(p)]
	reachable := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if reachable[fd] {
			return
		}
		reachable[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = fun.Name
			case *ast.SelectorExpr:
				callee = fun.Sel.Name
			}
			for _, target := range byName[callee] {
				visit(target)
			}
			return true
		})
	}
	for _, fd := range decls {
		if checkAll || purityRoots[fd.Name.Name] {
			visit(fd)
		}
	}

	var out []Finding
	for _, fd := range decls {
		if reachable[fd] {
			out = append(out, checkPurity(p, fd)...)
		}
		// The map-order rule applies to every function: nondeterministic
		// ordering is a defect wherever output is produced.
		out = append(out, checkMapOrder(p, fd)...)
	}
	return out
}

func pkgName(p *Package) string {
	if len(p.Files) > 0 {
		return p.Files[0].Name.Name
	}
	return ""
}

// checkPurity flags clock and randomness use.
func checkPurity(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgCall(p, call, "time", "Now") {
			out = append(out, Finding{
				Pos:      p.Fset.Position(call.Pos()),
				Analyzer: "puritycheck",
				Message:  fmt.Sprintf("%s is reachable from the coverage/refinement algebra but calls time.Now (inject a clock instead)", fd.Name.Name),
			})
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "rand" &&
				(usesImport(p, "math/rand") || usesImport(p, "math/rand/v2")) {
				out = append(out, Finding{
					Pos:      p.Fset.Position(call.Pos()),
					Analyzer: "puritycheck",
					Message:  fmt.Sprintf("%s is reachable from the coverage/refinement algebra but calls rand.%s", fd.Name.Name, sel.Sel.Name),
				})
			}
		}
		return true
	})
	return out
}

// checkMapOrder flags `for ... range <map>` loops whose appends carry
// the iteration order out of the loop (see orderLeaks) when the
// enclosing function never sorts: the produced order changes run to
// run. A call to anything whose name contains "sort" (sort.Strings,
// sort.Slice, a local sortFoo helper) counts as establishing order.
func checkMapOrder(p *Package, fd *ast.FuncDecl) []Finding {
	sorts := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "sort" {
				sorts = true
			}
		}
		if strings.Contains(strings.ToLower(name), "sort") {
			sorts = true
		}
		return true
	})
	if sorts {
		return nil
	}

	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(p, rng.X) {
			return true
		}
		if orderLeaks(p, rng) {
			out = append(out, Finding{
				Pos:      p.Fset.Position(rng.Pos()),
				Analyzer: "puritycheck",
				Message: fmt.Sprintf("%s appends inside a range over map %s without sorting: output order is nondeterministic",
					fd.Name.Name, exprString(rng.X)),
			})
		}
		return true
	})
	return out
}

// orderLeaks reports whether an append inside a map range can carry
// the iteration order out of the loop: the appended-to slice is
// declared outside the range statement, or it is declared inside and
// escapes the iteration — assigned to something declared outside
// (other than an element stored under the range key), returned, or
// sent on a channel. A slice built and stored within one iteration
// holds no iteration order.
func orderLeaks(p *Package, rng *ast.RangeStmt) bool {
	inside := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	local := make(map[types.Object]bool)
	leaks := false
	ast.Inspect(rng.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		if obj := rootObject(p, call.Args[0]); inside(obj) {
			local[obj] = true
		} else {
			leaks = true
		}
		return true
	})
	if leaks || len(local) == 0 {
		return leaks
	}
	var key types.Object
	if id, ok := rng.Key.(*ast.Ident); ok {
		key = p.Info.ObjectOf(id)
	}
	ast.Inspect(rng.Body, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) || !local[rootObject(p, rhs)] {
					continue
				}
				if ix, ok := s.Lhs[i].(*ast.IndexExpr); ok && key != nil && rootObject(p, ix.Index) == key {
					continue
				}
				if !inside(rootObject(p, s.Lhs[i])) {
					leaks = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if local[rootObject(p, r)] {
					leaks = true
				}
			}
		case *ast.SendStmt:
			if local[rootObject(p, s.Value)] {
				leaks = true
			}
		}
		return true
	})
	return leaks
}

// rootObject returns the variable an expression is rooted at (x for
// x, x.f, x[i], x[a:b] and *x), or nil.
func rootObject(p *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return p.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
