package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The static call graph: one node per module function with a body
// (declared functions, methods, and function literals), edges resolved
// statically for direct calls and by Class Hierarchy Analysis for
// calls through interfaces — every module type whose method set
// satisfies the interface is a candidate callee. Standard-library
// callees have no bodies in the loader and stay opaque; calls through
// function-typed values are not resolved (documented limitation).

// CGNode is one function in the call graph.
type CGNode struct {
	Fn   *types.Func   // nil for function literals
	Decl *ast.FuncDecl // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Pkg  *Package
	Body *ast.BlockStmt

	Calls []*CallSite

	// Encloser is set on literal nodes: the function whose body the
	// literal appears in. The graph carries an encloser->literal edge
	// because the literal may run under the encloser's context (defer,
	// immediate call, local invocation).
	Encloser *CGNode
}

// Name returns a stable, human-readable identity for messages.
func (n *CGNode) Name() string {
	if n.Fn != nil {
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
			return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), nil), n.Fn.Name())
		}
		return n.Fn.Pkg().Path() + "." + n.Fn.Name()
	}
	if n.Lit != nil && n.Pkg != nil {
		pos := n.Pkg.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("func literal at %s:%d", pos.Filename, pos.Line)
	}
	return "func literal"
}

// CallSite is one resolved call expression.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*CGNode
}

// CallGraph indexes the nodes of a Program.
type CallGraph struct {
	byFunc map[*types.Func]*CGNode
	byLit  map[*ast.FuncLit]*CGNode
	nodes  []*CGNode

	// namedTypes are the module's named (non-interface) types, the CHA
	// candidate set for interface dispatch.
	namedTypes []*types.Named
	chaCache   map[string][]*CGNode
}

// Nodes returns every node in deterministic order.
func (g *CallGraph) Nodes() []*CGNode { return g.nodes }

// LitNode returns the node of a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *CGNode { return g.byLit[lit] }

// BuildCallGraph constructs the call graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byFunc:   make(map[*types.Func]*CGNode),
		byLit:    make(map[*ast.FuncLit]*CGNode),
		chaCache: make(map[string][]*CGNode),
	}

	// Deterministic package order keeps node order stable run to run.
	ordered := make([]*Package, len(pkgs))
	copy(ordered, pkgs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Path < ordered[j].Path })

	// Pass 1: nodes for declared functions, and CHA candidate types.
	for _, p := range ordered {
		for _, fd := range funcDecls(p) {
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &CGNode{Fn: fn, Decl: fd, Pkg: p, Body: fd.Body}
			g.byFunc[fn] = n
			g.nodes = append(g.nodes, n)
		}
		if p.Pkg == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}

	// Pass 2: nodes for function literals (children of the declared
	// functions they appear in, transitively).
	for _, n := range append([]*CGNode(nil), g.nodes...) {
		g.collectLits(n)
	}

	// Pass 3: resolve call sites of every node.
	for _, n := range g.nodes {
		g.resolveCalls(n)
	}
	return g
}

// collectLits creates nodes for the function literals directly inside
// n's body (literals nested in other literals attach to the inner
// node), plus encloser->literal edges.
func (g *CallGraph) collectLits(n *CGNode) {
	var walk func(node ast.Node, owner *CGNode)
	walk = func(node ast.Node, owner *CGNode) {
		ast.Inspect(node, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			ln := &CGNode{Lit: lit, Pkg: owner.Pkg, Body: lit.Body, Encloser: owner}
			g.byLit[lit] = ln
			g.nodes = append(g.nodes, ln)
			walk(lit.Body, ln)
			return false // inner literals handled by the recursive walk
		})
	}
	walk(n.Body, n)
}

// ownBody visits the nodes of n's body that belong to n itself,
// skipping nested function literals (they are separate nodes).
func ownBody(n *CGNode, visit func(ast.Node) bool) {
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		return visit(m)
	})
}

// resolveCalls fills n.Calls.
func (g *CallGraph) resolveCalls(n *CGNode) {
	info := n.Pkg.Info
	ownBody(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := &CallSite{Call: call}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				if t := g.byFunc[fn]; t != nil {
					site.Callees = append(site.Callees, t)
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				if fn != nil {
					if recvIsInterface(sel.Recv()) {
						site.Callees = g.chaResolve(fn)
					} else if t := g.byFunc[fn]; t != nil {
						site.Callees = append(site.Callees, t)
					}
				}
			} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				// Package-qualified call: pkg.Func(...).
				if t := g.byFunc[fn]; t != nil {
					site.Callees = append(site.Callees, t)
				}
			}
		case *ast.FuncLit:
			if t := g.byLit[fun]; t != nil {
				site.Callees = append(site.Callees, t)
			}
		}
		if len(site.Callees) > 0 {
			n.Calls = append(n.Calls, site)
		}
		return true
	})
	// Literal nodes may run under the encloser's locks/context: record
	// a synthetic encloser->literal edge (conservative for defer, go,
	// and stored closures invoked locally).
	for _, cand := range g.nodes {
		if cand.Encloser == n {
			n.Calls = append(n.Calls, &CallSite{Call: nil, Callees: []*CGNode{cand}})
		}
	}
}

func recvIsInterface(t types.Type) bool {
	t = derefType(t)
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// chaResolve returns every module method that may satisfy a call to
// interface method ifn: for each named module type whose method set
// (value or pointer) implements the interface, the concrete method of
// the same name.
func (g *CallGraph) chaResolve(ifn *types.Func) []*CGNode {
	sig := ifn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := types.TypeString(recv.Type(), nil) + "." + ifn.Name()
	if cached, ok := g.chaCache[key]; ok {
		return cached
	}
	var out []*CGNode
	for _, named := range g.namedTypes {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), ifn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if t := g.byFunc[m]; t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	g.chaCache[key] = out
	return out
}

// TransitiveClosure computes, for every node, the union of seed facts
// over the node itself and everything it may (transitively) call —
// the fixpoint of closure[n] = seed(n) ∪ ⋃ closure(callees(n)).
// Recursion is handled by iterating to a fixed point.
func (g *CallGraph) TransitiveClosure(seed func(*CGNode) factSet) map[*CGNode]factSet {
	closure := make(map[*CGNode]factSet, len(g.nodes))
	for _, n := range g.nodes {
		closure[n] = seed(n).clone()
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			cur := closure[n]
			for _, site := range n.Calls {
				for _, callee := range site.Callees {
					for f := range closure[callee] {
						if !cur[f] {
							cur[f] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return closure
}

// classOf names the lock/arena class of a named type:
// "path/to/pkg.Type".
func classOf(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// shortClass trims the module prefix for compact messages.
func shortClass(class, module string) string {
	if rest, ok := strings.CutPrefix(class, module+"/"); ok {
		return rest
	}
	return class
}
