package main

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// Reasons shared by several unreachedAllowed entries.
const (
	whyRetention = "audit retention, the log's only size bound (§4.2); no binary wires it yet"
	whyStmt      = "sealed-interface marker of minidb.Stmt"
	whyDef2      = "Definition 2 (ground values); paper tests and hdb's reference interpreter check it"
	whyOracle    = "materialized Range oracle: tests in policy, core, lint and hdb compare the symbolic algebra with it"
	whyFailpoint = "failpoint hook for the crash-injection tests in audit and minidb"
)

// unreachedAllowed names the module functions that no entry point
// reaches but that stay, each with the reason. An entry that becomes
// reached, or whose function is deleted, fails TestEveryFunctionReached
// so the list cannot go stale.
var unreachedAllowed = map[string]string{
	"(*repro/internal/audit.Durable).Expire":        whyRetention,
	"(*repro/internal/audit.Durable).ExpireScan":    whyRetention,
	"(*repro/internal/audit.Durable).retain":        whyRetention,
	"(*repro/internal/audit.Log).Expire":            whyRetention,
	"(*repro/internal/audit.Log).Reset":             whyRetention,
	"(*repro/internal/audit.Log).Rotate":            whyRetention,
	"(*repro/internal/audit.Log).anyRejected":       whyRetention,
	"(*repro/internal/audit.Log).trimShards":        whyRetention,
	"(*repro/internal/audit.dict).reintern":         whyRetention,
	"repro/internal/audit.indexKeyTime":             whyRetention,
	"repro/internal/audit.retention":                whyRetention,
	"(*repro/internal/minidb.CreateIndexStmt).stmt": whyStmt,
	"(*repro/internal/minidb.CreateTableStmt).stmt": whyStmt,
	"(*repro/internal/minidb.DeleteStmt).stmt":      whyStmt,
	"(*repro/internal/minidb.DropTableStmt).stmt":   whyStmt,
	"(*repro/internal/minidb.ExplainStmt).stmt":     whyStmt,
	"(*repro/internal/minidb.InsertStmt).stmt":      whyStmt,
	"(*repro/internal/minidb.SelectStmt).stmt":      whyStmt,
	"(*repro/internal/minidb.UpdateStmt).stmt":      whyStmt,
	"(*repro/internal/vocab.Hierarchy).IsGround":    whyDef2,
	"(*repro/internal/vocab.Vocabulary).IsGround":   whyDef2,
	"(repro/internal/policy.Term).IsGround":         whyDef2,
	"(repro/internal/policy.Rule).IsGround":         whyDef2,
	"(*repro/internal/policy.Policy).IsGround":      whyDef2,
	"(repro/internal/policy.Term).GroundTerms":      "Definition 3 (ground sets); the materialized oracle behind the symbolic-algebra tests",
	"(repro/internal/policy.Rule).Groundings":       "Corollary 1 (a rule's ground rules); hdb's reference interpreter and the materialized oracles enumerate with it",
	"(*repro/internal/vocab.Vocabulary).Equivalent": "Definition 4 (equivalent values), named by TestEquivalentDefinition4",
	"(repro/internal/policy.Term).Equivalent":       "Definition 4 (equivalent terms), named by ExampleTerm_Equivalent",
	"(repro/internal/policy.Rule).Equivalent":       "Definition 6 (equivalent rules), named by TestRuleEquivalenceDefinition6",
	"repro/internal/core.CompleteCoverage":          "Definition 10 (complete coverage)",
	"(*repro/internal/policy.Range).ContainsKey":    whyOracle,
	"(*repro/internal/policy.Range).IntersectCount": whyOracle,
	"(*repro/internal/policy.Range).Keys":           whyOracle,
	"repro/internal/storage.NewFailBudget":          whyFailpoint,
	"repro/internal/storage.NewFailFileShared":      whyFailpoint,
	"(*repro/internal/storage.WAL).DurableLSN":      "the durability point audit's crash-injection differential checks acknowledged entries against",
	"(*repro/internal/storage.Store).Pages":         "page count that storage's page-reuse tests and audit's cold-read benchmark report",
}

// stdMethodNames are the method names of standard-library interfaces
// that module types satisfy or commonly will (fmt.Stringer, error,
// sort.Interface, heap.Interface, io.*, http.Handler, json.Marshaler).
// The standard library calls them through interfaces the call graph
// cannot see, so a method with one of these names is a root.
var stdMethodNames = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteAt": true,
	"Sync": true, "Truncate": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryFunctionReached fails when a module function with a body is
// reached from no entry point. The roots are every main and init (the
// commands, examples and perfbench), every function used as a value,
// methods named like standard-library interface methods, and the
// exported API of the root facade; edges are the CHA call graph the
// interprocedural analyzers use. Code only tests call belongs in a
// _test.go file.
func TestEveryFunctionReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := loader.Load(dir); err != nil {
			t.Fatal(err)
		}
	}
	pkgs := loader.Cached()
	g := BuildCallGraph(pkgs)

	var queue []*CGNode
	reached := make(map[*CGNode]bool)
	mark := func(n *CGNode) {
		if n != nil && !reached[n] {
			reached[n] = true
			queue = append(queue, n)
		}
	}
	for _, p := range pkgs {
		markValueUses(p, g, mark)
	}
	for _, n := range g.Nodes() {
		if n.Fn != nil && isRoot(n, loader.Module) {
			mark(n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Calls {
			for _, c := range site.Callees {
				mark(c)
			}
		}
	}

	var unreached []string
	seen := make(map[string]bool)
	for _, n := range g.Nodes() {
		if n.Fn == nil {
			continue
		}
		name := n.Name()
		seen[name] = true
		if reached[n] {
			if _, ok := unreachedAllowed[name]; ok {
				t.Errorf("%s is reached now; delete its unreachedAllowed entry", name)
			}
			continue
		}
		if _, ok := unreachedAllowed[name]; !ok {
			pos := n.Pkg.Fset.Position(n.Decl.Pos())
			unreached = append(unreached, name+" ("+pos.String()+")")
		}
	}
	for name := range unreachedAllowed {
		if !seen[name] {
			t.Errorf("unreachedAllowed names %s, which no longer exists", name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no entry point reaches %s: delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
}

// isRoot reports whether a declared function is an entry point by
// itself: main, init, a standard-library interface method, or part of
// the root facade's exported API.
func isRoot(n *CGNode, module string) bool {
	name := n.Fn.Name()
	sig := n.Fn.Type().(*types.Signature)
	switch {
	case sig.Recv() == nil && (name == "init" || name == "main" && n.Fn.Pkg().Name() == "main"):
		return true
	case sig.Recv() != nil && stdMethodNames[name]:
		return true
	case n.Fn.Pkg().Path() == module && n.Fn.Exported():
		if sig.Recv() == nil {
			return true
		}
		named, ok := derefType(sig.Recv().Type()).(*types.Named)
		return ok && named.Obj().Exported()
	}
	return false
}

// markValueUses marks every module function the package refers to
// other than as the callee of a call: function values, method values
// and method expressions may be called from anywhere. Package-level
// variable initializers run at init, so every function they name is
// marked, called or not.
func markValueUses(p *Package, g *CallGraph, mark func(*CGNode)) {
	callee := make(map[*ast.Ident]bool)
	for _, fd := range funcDecls(p) {
		ast.Inspect(fd, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := ast.Unparen(call.Fun)
			if ix, ok := fun.(*ast.IndexExpr); ok {
				fun = ix.X
			}
			switch fun := fun.(type) {
			case *ast.Ident:
				callee[fun] = true
			case *ast.SelectorExpr:
				callee[fun.Sel] = true
			}
			return true
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || callee[id] {
				return true
			}
			if fn, ok := p.Info.Uses[id].(*types.Func); ok {
				mark(g.byFunc[fn.Origin()])
			}
			return true
		})
	}
}
