package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// arenasafe guards the immutable-after-publish contract of arena-
// backed values (types marked prima:arena — policy.Range, whose rules
// and key map are built once from the grounding arena, and the hdb
// decision snapshot, query plan and specialization, which are read
// lock-free once published). The life cycle:
//
//	fresh      the value was allocated here (composite literal) and
//	           may be freely filled in;
//	published  the value escaped — returned, stored into a struct,
//	           map, slice, global, or channel, captured by a closure,
//	           or passed to a function that retains it (per an
//	           interprocedural escape summary);
//	frozen     after publication any write through the value — a
//	           direct field/element store or a call to a method or
//	           function that mutates its parameter (per a mutation
//	           summary) — is a finding.
//
// Values received from calls or reads (a cache hit, a map load) are
// treated as published from birth: the receiver cannot know who else
// holds them. Aliasing through plain local copies is not tracked.
var arenasafeAnalyzer = &Analyzer{
	Name:       "arenasafe",
	Doc:        "prima:arena values must not be mutated after publication",
	RunProgram: runArenasafe,
}

// arenaSummary records, per function, which parameters (receiver
// first) it writes through and which it retains.
type arenaSummary struct {
	mutates uint64
	stores  uint64
}

func runArenasafe(prog *Program) []Finding {
	if len(prog.Markers.Arenas) == 0 {
		return nil
	}
	sums := arenaSummaries(prog)
	var out []Finding
	for _, n := range prog.CG.Nodes() {
		arenaScanNode(prog, n, sums, func(pos token.Pos, msg string) {
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(pos),
				Analyzer: "arenasafe",
				Message:  msg,
			})
		})
	}
	return out
}

func isArenaType(prog *Program, t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := derefType(t).(*types.Named)
	return ok && prog.Markers.Arenas[named]
}

// ---- interprocedural summaries ----

// arenaSummaries computes the mutates/stores masks of every function
// to a fixpoint over the call graph.
func arenaSummaries(prog *Program) map[*CGNode]*arenaSummary {
	sums := make(map[*CGNode]*arenaSummary, len(prog.CG.Nodes()))
	for _, n := range prog.CG.Nodes() {
		sums[n] = &arenaSummary{}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.CG.Nodes() {
			mut, sto := summarizeNode(prog, n, sums)
			s := sums[n]
			if mut|s.mutates != s.mutates || sto|s.stores != s.stores {
				s.mutates |= mut
				s.stores |= sto
				changed = true
			}
		}
	}
	return sums
}

// summarizeNode derives one function's masks given current callee
// summaries.
func summarizeNode(prog *Program, n *CGNode, sums map[*CGNode]*arenaSummary) (mutates, stores uint64) {
	params := paramObjs(n)
	idx := make(map[types.Object]int, len(params))
	for i, obj := range params {
		idx[obj] = i
	}
	info := n.Pkg.Info
	paramOf := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		obj := info.Uses[id]
		if obj == nil {
			return 0, false
		}
		i, ok := idx[obj]
		return i, ok
	}

	ownBody(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if root, pathed := rootIdent(lhs); pathed {
					if obj := info.Uses[root]; obj != nil {
						if i, ok := idx[obj]; ok {
							mutates |= paramBit(i)
						}
					}
				}
			}
			// Storing a parameter through any non-trivial lvalue counts
			// as retention (field, index, deref, or an outer variable).
			plainLocal := len(x.Lhs) == 1 && isPlainLocalIdent(info, x.Lhs[0], idx)
			if !plainLocal {
				for _, rhs := range x.Rhs {
					if i, ok := paramOf(stripAddr(rhs)); ok {
						stores |= paramBit(i)
					}
				}
			}
		case *ast.IncDecStmt:
			if root, pathed := rootIdent(x.X); pathed {
				if obj := info.Uses[root]; obj != nil {
					if i, ok := idx[obj]; ok {
						mutates |= paramBit(i)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if i, ok := paramOf(stripAddr(r)); ok {
					stores |= paramBit(i)
				}
			}
		case *ast.SendStmt:
			if i, ok := paramOf(stripAddr(x.Value)); ok {
				stores |= paramBit(i)
			}
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if i, ok := paramOf(stripAddr(el)); ok {
					stores |= paramBit(i)
				}
			}
		case *ast.FuncLit:
			// Captured parameters may be written or retained later.
			ast.Inspect(x.Body, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil {
						if i, ok := idx[obj]; ok {
							stores |= paramBit(i)
							mutates |= paramBit(i)
						}
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			mut, sto := callEffects(prog, n, x, sums, func(e ast.Expr) (int, bool) {
				return paramOf(e)
			})
			mutates |= mut
			stores |= sto
		}
		return true
	})
	return mutates, stores
}

// callEffects maps a call's argument effects back onto the caller's
// slots: slotOf resolves an argument expression to a caller slot
// (parameter index in summaries, or a synthetic slot in the local
// analysis). Unresolvable args are ignored.
func callEffects(prog *Program, n *CGNode, call *ast.CallExpr, sums map[*CGNode]*arenaSummary, slotOf func(ast.Expr) (int, bool)) (mutates, stores uint64) {
	info := n.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return 0, 0 // conversion
	}
	args := callArgsOf(info, call)
	callees := calleesAt(n, call)
	if len(callees) == 0 {
		// Builtins: append/copy retain their arguments; the rest are
		// harmless. Everything else opaque (std) is assumed to retain.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				if b.Name() != "append" && b.Name() != "copy" {
					return 0, 0
				}
			}
		}
		for _, arg := range args {
			if i, ok := slotOf(stripAddr(arg)); ok {
				stores |= paramBit(i)
			}
		}
		return 0, stores
	}
	for _, callee := range callees {
		s := sums[callee]
		for j, arg := range args {
			i, ok := slotOf(stripAddr(arg))
			if !ok {
				continue
			}
			if s.mutates&paramBit(j) != 0 {
				mutates |= paramBit(i)
			}
			if s.stores&paramBit(j) != 0 {
				stores |= paramBit(i)
			}
		}
	}
	return mutates, stores
}

// ---- per-function published-set analysis ----

// arenaScanNode tracks fresh arena locals through the CFG and reports
// writes that may happen after publication.
func arenaScanNode(prog *Program, n *CGNode, sums map[*CGNode]*arenaSummary, report func(token.Pos, string)) {
	info := n.Pkg.Info

	// arenaLocal resolves an expression to a function-local arena
	// variable (declared inside the body — parameters and globals are
	// out of scope for the fresh/published protocol).
	arenaLocal := func(e ast.Expr) (*types.Var, bool) {
		id, ok := ast.Unparen(stripAddr(e)).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || !isArenaType(prog, v.Type()) {
			return nil, false
		}
		if v.Pos() < n.Body.Pos() || v.Pos() > n.Body.End() {
			return nil, false
		}
		return v, true
	}
	factFor := func(v *types.Var) string { return "pub:" + strconv.Itoa(int(v.Pos())) }
	className := func(v *types.Var) string {
		named, _ := derefType(v.Type()).(*types.Named)
		return shortClass(classOf(named), prog.Loader.Module)
	}

	apply := func(b *Block, pub factSet, rec bool) factSet {
		pub = pub.clone()
		checkWrite := func(v *types.Var, pos token.Pos) {
			if rec && pub[factFor(v)] {
				report(pos, fmt.Sprintf("%s %q mutated after publication (prima:arena)", className(v), v.Name()))
			}
		}
		for _, s := range b.Stmts {
			ast.Inspect(s, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.FuncLit:
					// Capture publishes: the closure may run anytime.
					ast.Inspect(x.Body, func(c ast.Node) bool {
						if e, ok := c.(ast.Expr); ok {
							if v, ok := arenaLocal(e); ok {
								pub[factFor(v)] = true
							}
						}
						return true
					})
					return false
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						var rhs ast.Expr
						if len(x.Lhs) == len(x.Rhs) {
							rhs = x.Rhs[i]
						}
						if v, ok := arenaLocal(lhs); ok {
							// Rebinding the variable itself.
							if rhs != nil && isFreshArenaAlloc(prog, info, rhs) {
								delete(pub, factFor(v))
							} else {
								pub[factFor(v)] = true // received: published at birth
							}
							continue
						}
						if root, pathed := rootIdent(lhs); pathed {
							if v, ok := arenaLocal(root); ok {
								checkWrite(v, lhs.Pos())
								continue
							}
						}
						// Storing an arena value into some other lvalue.
						if rhs != nil {
							if v, ok := arenaLocal(rhs); ok {
								pub[factFor(v)] = true
							}
						}
					}
					if len(x.Lhs) != len(x.Rhs) {
						for _, rhs := range x.Rhs {
							if v, ok := arenaLocal(rhs); ok {
								pub[factFor(v)] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if root, pathed := rootIdent(x.X); pathed {
						if v, ok := arenaLocal(root); ok {
							checkWrite(v, x.Pos())
						}
					}
				case *ast.ReturnStmt:
					for _, r := range x.Results {
						if v, ok := arenaLocal(r); ok {
							pub[factFor(v)] = true
						}
					}
				case *ast.SendStmt:
					if v, ok := arenaLocal(x.Value); ok {
						pub[factFor(v)] = true
					}
				case *ast.CompositeLit:
					if !isFreshArenaAlloc(prog, info, x) {
						for _, el := range x.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								el = kv.Value
							}
							if v, ok := arenaLocal(el); ok {
								pub[factFor(v)] = true
							}
						}
					}
				case *ast.CallExpr:
					// Map argument slots to the arena locals they carry.
					var slotVars []*types.Var
					slotOf := func(e ast.Expr) (int, bool) {
						if v, ok := arenaLocal(e); ok {
							slotVars = append(slotVars, v)
							return len(slotVars) - 1, true
						}
						return 0, false
					}
					mut, sto := callEffects(prog, n, x, sums, slotOf)
					for i, v := range slotVars {
						if mut&paramBit(i) != 0 {
							checkWrite(v, x.Pos())
						}
						if sto&paramBit(i) != 0 {
							pub[factFor(v)] = true
						}
					}
				}
				return true
			})
		}
		return pub
	}

	cfg := BuildCFG(n.Body)
	res := cfg.Fixpoint(factSet{}, func(b *Block, in factSet) factSet {
		return apply(b, in, false)
	})
	for _, b := range cfg.Blocks {
		apply(b, res.In[b.Index], true)
	}
}

// ---- small shared helpers ----

// rootIdent walks an lvalue path (x.f[i].g = ...) to its root
// identifier; pathed reports whether at least one selector, index, or
// dereference sits between the root and the assignment.
func rootIdent(e ast.Expr) (id *ast.Ident, pathed bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, pathed
		case *ast.SelectorExpr:
			e = x.X
			pathed = true
		case *ast.IndexExpr:
			e = x.X
			pathed = true
		case *ast.StarExpr:
			e = x.X
			pathed = true
		default:
			return nil, false
		}
	}
}

// stripAddr unwraps &x to x.
func stripAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return ast.Unparen(e)
}

// isPlainLocalIdent reports whether the lvalue is a bare identifier
// that is not one of the function's parameters (a local rebinding).
func isPlainLocalIdent(info *types.Info, e ast.Expr, paramIdx map[types.Object]int) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return false
	}
	_, isParam := paramIdx[obj]
	return !isParam
}

// isFreshArenaAlloc recognizes T{...} and &T{...} for arena type T.
func isFreshArenaAlloc(prog *Program, info *types.Info, e ast.Expr) bool {
	cl, ok := ast.Unparen(stripAddr(e)).(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := info.Types[cl]
	return ok && isArenaType(prog, tv.Type)
}

// callArgsOf lists a call's effective arguments in callee slot order
// (receiver first for method values).
func callArgsOf(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	out = append(out, call.Args...)
	return out
}

// calleesAt returns the resolved module callees of one call site.
func calleesAt(n *CGNode, call *ast.CallExpr) []*CGNode {
	for _, site := range n.Calls {
		if site.Call == call {
			return site.Callees
		}
	}
	return nil
}

// paramObjs returns receiver + declared parameter objects in slot
// order for any call-graph node.
func paramObjs(n *CGNode) []types.Object {
	var out []types.Object
	defs := n.Pkg.Info.Defs
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := defs[name]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	if n.Decl != nil {
		addFields(n.Decl.Recv)
		addFields(n.Decl.Type.Params)
	} else if n.Lit != nil {
		addFields(n.Lit.Type.Params)
	}
	return out
}
