package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is prima-vet's third analysis layer: a pruned SSA-lite IR
// built per function on top of the CFG. Every write to a trackable
// local produces a fresh versioned value; reads resolve to the
// reaching version; phi nodes appear (on demand, so the form is
// pruned) where versions merge at join points. A small value lattice
// over the versions — constants, nil-ness, channel states — gives the
// layer-3 analyzers (atomicsafe, goleak, chanuse) and the rebased
// lockorder/phileak flow-sensitive precision the plain fact-set
// engine cannot express: a rebinding kills the old version instead of
// smearing facts over the variable's whole lifetime.
//
// Trackable locals are function-local variables (parameters and
// receiver included) that are never address-taken and never captured
// by a nested function literal; everything else stays outside SSA and
// is handled conservatively by the analyzers. Writes through a path
// (x.f = v, x[i] = v, x++) version the binding too — an "update" value
// chains to its predecessor so def-use stays precise without
// field-sensitivity. close(ch) is modeled as a defining event: the new
// version carries the closed channel state forward.

// valKind classifies how an SSA value came to be.
type valKind uint8

const (
	valParam  valKind = iota // parameter/receiver at entry
	valZero                  // var declared without initializer
	valDef                   // x = rhs, x := rhs (Expr is the rhs, nil when unsplittable)
	valUpdate                // x.f = v, x[i] = v, x++ — same binding, new version
	valClose                 // close(x)
	valPhi                   // merge at a join point
)

func (k valKind) String() string {
	switch k {
	case valParam:
		return "param"
	case valZero:
		return "zero"
	case valDef:
		return "def"
	case valUpdate:
		return "update"
	case valClose:
		return "close"
	case valPhi:
		return "phi"
	}
	return "?"
}

// SSAValue is one version of one local variable.
type SSAValue struct {
	ID    int          // creation order, unique within a FuncSSA
	Obj   types.Object // the variable this value versions
	Num   int          // version number of Obj (0 = entry value)
	Kind  valKind
	Expr  ast.Expr    // defining rhs (valDef) or written lvalue (valUpdate)
	Prev  *SSAValue   // predecessor version (valUpdate, valClose)
	Ops   []*SSAValue // phi operands, in predecessor-block order
	Block *Block      // block the value is defined in (nil for entry values)
	Pos   token.Pos
}

func (v *SSAValue) String() string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s#%d(%s)", v.Obj.Name(), v.Num, v.Kind)
}

// latFlags is the value lattice: a bitset of facts that may hold for
// a version. A may-analysis joins by union, so "possibly nil" is
// latNil set alongside others; "definitely nil" is latNil alone.
type latFlags uint16

const (
	latUnknown  latFlags = 1 << iota // from an opaque source (call, field, foreign var)
	latNil                           // nil literal / zero value of a reference type
	latNonNil                        // make, new, &x, composite literal, basic literal
	latConst                         // a go/constant value is attached to the def site
	latClosed                        // channel: close() ran on some path to here
	latBuffered                      // channel: made with constant capacity > 0
)

func (f latFlags) String() string {
	var parts []string
	for _, p := range []struct {
		bit  latFlags
		name string
	}{
		{latUnknown, "unknown"}, {latNil, "nil"}, {latNonNil, "nonnil"},
		{latConst, "const"}, {latClosed, "closed"}, {latBuffered, "buffered"},
	} {
		if f&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	if len(parts) == 0 {
		return "bottom"
	}
	return strings.Join(parts, "|")
}

// FuncSSA is the SSA form of one function body.
type FuncSSA struct {
	CFG  *CFG
	Node *CGNode

	// Defs maps each write-site identifier to the value it defines.
	Defs map[*ast.Ident]*SSAValue
	// Uses maps each read-site identifier to the reaching value — the
	// def-use chains, keyed from the use side.
	Uses map[*ast.Ident]*SSAValue
	// PhiOf lists the phi nodes placed at each join block.
	PhiOf map[*Block][]*SSAValue
	// UseSites is the def-use chain keyed from the def side.
	UseSites map[*SSAValue][]*ast.Ident

	tracked map[types.Object]bool
	flags   map[*SSAValue]latFlags
	values  []*SSAValue
}

// Values returns every SSA value in creation order.
func (f *FuncSSA) Values() []*SSAValue { return f.values }

// ResolveCopies follows valDef chains through plain variable copies
// (x := y, x = y) to the value's originating definition: the first
// value in the chain that is not a bare copy of another tracked
// variable. Used for alias resolution (lockorder: mu := &s.mu).
func (f *FuncSSA) ResolveCopies(v *SSAValue) *SSAValue {
	for steps := 0; v != nil && steps < 64; steps++ {
		if v.Kind != valDef || v.Expr == nil {
			return v
		}
		id, ok := ast.Unparen(v.Expr).(*ast.Ident)
		if !ok {
			return v
		}
		next, ok := f.Uses[id]
		if !ok {
			return v
		}
		v = next
	}
	return v
}

// DefExpr returns the expression that ultimately defines v after
// following plain copies, or nil (phi, param, zero, update).
func (f *FuncSSA) DefExpr(v *SSAValue) ast.Expr {
	v = f.ResolveCopies(v)
	if v != nil && v.Kind == valDef {
		return v.Expr
	}
	return nil
}

// Flags returns the lattice facts of a value, computing the whole
// function's lattice (a monotone OR-fixpoint over phis and copies) on
// first use.
func (f *FuncSSA) Flags(v *SSAValue) latFlags {
	if f.flags == nil {
		f.computeFlags()
	}
	return f.flags[v]
}

// ---- construction ----

// BuildSSA constructs the SSA form of one call-graph node over its
// (freshly built) CFG.
func BuildSSA(n *CGNode) *FuncSSA {
	f := &FuncSSA{
		CFG:      BuildCFG(n.Body),
		Node:     n,
		Defs:     make(map[*ast.Ident]*SSAValue),
		Uses:     make(map[*ast.Ident]*SSAValue),
		PhiOf:    make(map[*Block][]*SSAValue),
		UseSites: make(map[*SSAValue][]*ast.Ident),
	}
	f.tracked = trackedObjects(n)
	b := &ssaBuilder{
		fn:       f,
		info:     n.Pkg.Info,
		lastDef:  make(map[*Block]map[types.Object]*SSAValue),
		entryVal: make(map[*Block]map[types.Object]*SSAValue),
		replaced: make(map[*SSAValue]*SSAValue),
		initials: make(map[types.Object]*SSAValue),
		verOf:    make(map[types.Object]int),
	}
	b.preds = make(map[*Block][]*Block, len(f.CFG.Blocks))
	for _, blk := range f.CFG.Blocks {
		for _, s := range blk.Succs {
			b.preds[s] = append(b.preds[s], blk)
		}
	}

	// Phase 1: create a versioned def for every write, block by block.
	for _, blk := range f.CFG.Blocks {
		b.scanBlock(blk, true)
	}
	// Phase 2+3: replay each block resolving reads against reaching
	// definitions, placing phis on demand at join points.
	for _, blk := range f.CFG.Blocks {
		b.scanBlock(blk, false)
	}
	// Prune phis that turned out trivial and chase replacements.
	b.pruneTrivialPhis()
	for id, v := range f.Uses {
		f.Uses[id] = b.resolve(v)
	}
	for _, v := range f.Defs {
		if v.Prev != nil {
			v.Prev = b.resolve(v.Prev)
		}
	}
	for blk, phis := range f.PhiOf {
		kept := phis[:0]
		for _, phi := range phis {
			if b.replaced[phi] == nil {
				for i, op := range phi.Ops {
					phi.Ops[i] = b.resolve(op)
				}
				kept = append(kept, phi)
			}
		}
		if len(kept) == 0 {
			delete(f.PhiOf, blk)
		} else {
			f.PhiOf[blk] = kept
		}
	}
	kept := f.values[:0]
	for _, v := range f.values {
		if b.replaced[v] == nil {
			kept = append(kept, v)
		}
	}
	f.values = kept
	// Def-use chains keyed from the def side, in source order.
	var useIDs []*ast.Ident
	for id := range f.Uses {
		useIDs = append(useIDs, id)
	}
	sort.Slice(useIDs, func(i, j int) bool { return useIDs[i].Pos() < useIDs[j].Pos() })
	for _, id := range useIDs {
		v := f.Uses[id]
		f.UseSites[v] = append(f.UseSites[v], id)
	}
	return f
}

// trackedObjects selects the locals that participate in SSA form:
// parameters, receiver, and body-local variables that are never
// address-taken and never referenced from a nested function literal.
func trackedObjects(n *CGNode) map[types.Object]bool {
	info := n.Pkg.Info
	tracked := make(map[types.Object]bool)
	for _, obj := range paramObjs(n) {
		if _, ok := obj.(*types.Var); ok {
			tracked[obj] = true
		}
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok && !v.IsField() &&
				v.Pos() >= n.Body.Pos() && v.Pos() <= n.Body.End() {
				tracked[v] = true
			}
		}
		return true
	})
	// Exclusions. A variable whose address escapes, or that a closure
	// captures, can change behind SSA's back.
	exclude := func(obj types.Object) {
		if obj != nil {
			delete(tracked, obj)
		}
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					exclude(info.Uses[id])
				}
			}
		case *ast.FuncLit:
			if x != n.Lit {
				ast.Inspect(x.Body, func(c ast.Node) bool {
					if id, ok := c.(*ast.Ident); ok {
						exclude(info.Uses[id])
					}
					return true
				})
				return false
			}
		}
		return true
	})
	return tracked
}

type ssaBuilder struct {
	fn   *FuncSSA
	info *types.Info

	preds    map[*Block][]*Block
	lastDef  map[*Block]map[types.Object]*SSAValue // last write per block
	entryVal map[*Block]map[types.Object]*SSAValue // reaching value at block entry
	replaced map[*SSAValue]*SSAValue               // trivial-phi replacements
	initials map[types.Object]*SSAValue            // entry/zero values
	verOf    map[types.Object]int
}

func (b *ssaBuilder) newValue(obj types.Object, kind valKind, expr ast.Expr, blk *Block, pos token.Pos) *SSAValue {
	b.verOf[obj]++
	v := &SSAValue{
		ID: len(b.fn.values), Obj: obj, Num: b.verOf[obj],
		Kind: kind, Expr: expr, Block: blk, Pos: pos,
	}
	b.fn.values = append(b.fn.values, v)
	return v
}

func (b *ssaBuilder) resolve(v *SSAValue) *SSAValue {
	for v != nil {
		r := b.replaced[v]
		if r == nil {
			return v
		}
		v = r
	}
	return v
}

// initialValue is the version of obj live at function entry: the
// parameter value, or the zero value for body locals read before any
// write (possible only on broken or dead paths, but must not crash).
func (b *ssaBuilder) initialValue(obj types.Object) *SSAValue {
	if v, ok := b.initials[obj]; ok {
		return v
	}
	kind := valZero
	for _, p := range paramObjs(b.fn.Node) {
		if p == obj {
			kind = valParam
			break
		}
	}
	b.verOf[obj] = -1 // entry value numbers 0
	v := b.newValue(obj, kind, nil, nil, obj.Pos())
	b.initials[obj] = v
	return v
}

// entryValue computes the reaching value of obj at blk's entry,
// placing a phi when predecessors disagree. The phi is installed in
// the memo before its operands are resolved so loops terminate.
func (b *ssaBuilder) entryValue(blk *Block, obj types.Object) *SSAValue {
	if m := b.entryVal[blk]; m != nil {
		if v, ok := m[obj]; ok {
			return b.resolve(v)
		}
	}
	preds := b.preds[blk]
	var v *SSAValue
	switch {
	case blk == b.fn.CFG.Entry || len(preds) == 0:
		v = b.initialValue(obj)
	case len(preds) == 1:
		v = b.exitValue(preds[0], obj)
	default:
		phi := b.newValue(obj, valPhi, nil, blk, blk.firstPos())
		b.setEntry(blk, obj, phi)
		b.fn.PhiOf[blk] = append(b.fn.PhiOf[blk], phi)
		for _, p := range preds {
			phi.Ops = append(phi.Ops, b.exitValue(p, obj))
		}
		v = b.tryTrivial(phi)
	}
	b.setEntry(blk, obj, v)
	return v
}

func (b *ssaBuilder) setEntry(blk *Block, obj types.Object, v *SSAValue) {
	m := b.entryVal[blk]
	if m == nil {
		m = make(map[types.Object]*SSAValue)
		b.entryVal[blk] = m
	}
	m[obj] = v
}

// exitValue is the value of obj at blk's exit: its last in-block def,
// or its entry value when the block never writes it.
func (b *ssaBuilder) exitValue(blk *Block, obj types.Object) *SSAValue {
	if d := b.lastDef[blk][obj]; d != nil {
		return b.resolve(d)
	}
	return b.entryValue(blk, obj)
}

// tryTrivial collapses a phi whose operands are all the same value
// (or the phi itself) into that value.
func (b *ssaBuilder) tryTrivial(phi *SSAValue) *SSAValue {
	var same *SSAValue
	for _, op := range phi.Ops {
		op = b.resolve(op)
		if op == phi || op == same {
			continue
		}
		if same != nil {
			return phi
		}
		same = op
	}
	if same == nil {
		return phi
	}
	b.replaced[phi] = same
	return same
}

// pruneTrivialPhis iterates trivial-phi collapsing to a fixpoint:
// removing one phi can make another trivial.
func (b *ssaBuilder) pruneTrivialPhis() {
	for changed := true; changed; {
		changed = false
		for _, v := range b.fn.values {
			if v.Kind != valPhi || b.replaced[v] != nil {
				continue
			}
			if b.tryTrivial(v) != v {
				changed = true
			}
		}
	}
}

// firstPos is a stable anchor position for phis placed in the block.
func (blk *Block) firstPos() token.Pos {
	if len(blk.Stmts) > 0 {
		return blk.Stmts[0].Pos()
	}
	return token.NoPos
}

// scanBlock walks one block's statements in execution order. In the
// define pass it creates a versioned value per write; in the resolve
// pass it replays the block against reaching definitions, recording
// uses and filling update/close predecessors.
func (b *ssaBuilder) scanBlock(blk *Block, define bool) {
	cur := make(map[types.Object]*SSAValue)
	reach := func(obj types.Object) *SSAValue {
		if v, ok := cur[obj]; ok {
			return v
		}
		if define {
			return nil
		}
		v := b.entryValue(blk, obj)
		cur[obj] = v
		return v
	}
	read := func(id *ast.Ident) {
		obj := b.info.Uses[id]
		if obj == nil || !b.fn.tracked[obj] {
			return
		}
		if define {
			return
		}
		if v := reach(obj); v != nil {
			b.fn.Uses[id] = v
		}
	}
	write := func(id *ast.Ident, kind valKind, expr ast.Expr) {
		obj := b.info.Defs[id]
		if obj == nil {
			obj = b.info.Uses[id]
		}
		if obj == nil || !b.fn.tracked[obj] {
			return
		}
		if define {
			v := b.newValue(obj, kind, expr, blk, id.Pos())
			b.fn.Defs[id] = v
			cur[obj] = v
			m := b.lastDef[blk]
			if m == nil {
				m = make(map[types.Object]*SSAValue)
				b.lastDef[blk] = m
			}
			m[obj] = v
			return
		}
		v := b.fn.Defs[id]
		if v == nil {
			return
		}
		if kind == valUpdate || kind == valClose {
			v.Prev = reach(obj)
		}
		cur[obj] = v
	}
	for _, s := range blk.Stmts {
		b.walkStmt(s, read, write)
	}
	if rng := b.fn.CFG.Ranges[blk]; rng != nil {
		// Implicit per-iteration assignment of the key/value variables,
		// after the range expression was evaluated.
		for _, e := range []ast.Expr{rng.Key, rng.Value} {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				write(id, valDef, nil)
			}
		}
	}
}

// walkStmt dispatches one statement: reads before writes, matching
// Go's evaluation order closely enough for a may-analysis.
func (b *ssaBuilder) walkStmt(s ast.Stmt, read func(*ast.Ident), write func(*ast.Ident, valKind, ast.Expr)) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
			// Op-assign (x += y) reads the lhs too.
			for _, l := range x.Lhs {
				b.walkExpr(l, read, write)
			}
		}
		for _, r := range x.Rhs {
			b.walkExpr(r, read, write)
		}
		for i, l := range x.Lhs {
			var rhs ast.Expr
			if len(x.Lhs) == len(x.Rhs) {
				rhs = x.Rhs[i]
			}
			b.writeLvalue(l, rhs, read, write)
		}
	case *ast.IncDecStmt:
		b.walkExpr(x.X, read, write)
		b.writeLvalue(x.X, nil, read, func(id *ast.Ident, _ valKind, expr ast.Expr) {
			write(id, valUpdate, x.X)
		})
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				b.walkExpr(v, read, write)
			}
			for i, name := range vs.Names {
				switch {
				case len(vs.Values) == 0:
					write(name, valZero, nil)
				case len(vs.Values) == len(vs.Names):
					write(name, valDef, vs.Values[i])
				default:
					write(name, valDef, nil)
				}
			}
		}
	case *ast.SendStmt:
		b.walkExpr(x.Chan, read, write)
		b.walkExpr(x.Value, read, write)
	case *ast.ExprStmt:
		b.walkExpr(x.X, read, write)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			b.walkExpr(r, read, write)
		}
	case *ast.DeferStmt:
		// The call and its arguments are evaluated here, but the call
		// itself runs at function exit: a deferred close(ch) must not
		// define a valClose version at the defer site, or the idiomatic
		// `defer close(ch); ch <- 1` reads as a send on a closed
		// channel. Walk for reads only, dropping the close write.
		b.walkExpr(x.Call, read, func(*ast.Ident, valKind, ast.Expr) {})
	case *ast.GoStmt:
		b.walkExpr(x.Call, read, write)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		// Anything else that can reach a block statement list
		// (type-switch assigns, comm clauses already split, nested
		// blocks from broken input): a conservative read walk.
		if s != nil {
			if as, ok := s.(ast.Stmt); ok {
				ast.Inspect(as, func(m ast.Node) bool {
					if lit, ok := m.(*ast.FuncLit); ok && lit != b.fn.Node.Lit {
						return false
					}
					if id, ok := m.(*ast.Ident); ok {
						read(id)
					}
					return true
				})
			}
		}
	}
}

// writeLvalue classifies one assignment target: a plain tracked ident
// is a fresh def; a pathed target (x.f, x[i], *x) versions its root
// as an update; anything else only contributes reads.
func (b *ssaBuilder) writeLvalue(l ast.Expr, rhs ast.Expr, read func(*ast.Ident), write func(*ast.Ident, valKind, ast.Expr)) {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		write(x, valDef, rhs)
	default:
		// Reads inside the path (x.f[i] reads x and i) were NOT walked
		// with the rhs; walk them now, then version the root.
		b.walkExpr(l, read, write)
		if root, pathed := rootIdent(l); pathed && root != nil {
			write(root, valUpdate, l)
		}
	}
}

// walkExpr records reads in source order, modeling close(ch) as a
// defining event and skipping nested function literals (separate
// call-graph nodes with their own SSA).
func (b *ssaBuilder) walkExpr(e ast.Expr, read func(*ast.Ident), write func(*ast.Ident, valKind, ast.Expr)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			if x != b.fn.Node.Lit {
				return false
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if bi, ok := b.info.Uses[id].(*types.Builtin); ok && bi.Name() == "close" && len(x.Args) == 1 {
					if arg, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok {
						read(arg)
						write(arg, valClose, x)
						return false
					}
				}
			}
		case *ast.Ident:
			read(x)
		}
		return true
	})
}

// ---- value lattice ----

func (f *FuncSSA) computeFlags() {
	f.flags = make(map[*SSAValue]latFlags, len(f.values))
	for changed := true; changed; {
		changed = false
		for _, v := range f.values {
			nf := f.flags[v] | f.rawFlags(v)
			if nf != f.flags[v] {
				f.flags[v] = nf
				changed = true
			}
		}
	}
}

func (f *FuncSSA) rawFlags(v *SSAValue) latFlags {
	switch v.Kind {
	case valParam:
		return latUnknown
	case valZero:
		return zeroFlags(v.Obj.Type())
	case valDef:
		if v.Expr == nil {
			return latUnknown
		}
		return f.exprFlags(v.Expr)
	case valUpdate:
		if v.Prev == nil {
			return latUnknown
		}
		// A write through the binding does not change what the binding
		// points at.
		return f.flags[v.Prev]
	case valClose:
		base := latFlags(latUnknown)
		if v.Prev != nil {
			base = f.flags[v.Prev]
		}
		return base | latClosed
	case valPhi:
		var out latFlags
		for _, op := range v.Ops {
			out |= f.flags[op]
		}
		return out
	}
	return latUnknown
}

func zeroFlags(t types.Type) latFlags {
	switch t.Underlying().(type) {
	case *types.Chan, *types.Map, *types.Slice, *types.Pointer,
		*types.Interface, *types.Signature:
		return latNil
	}
	return latUnknown
}

// exprFlags evaluates a defining expression against the lattice.
func (f *FuncSSA) exprFlags(e ast.Expr) latFlags {
	info := f.Node.Pkg.Info
	if tv, ok := info.Types[e]; ok {
		if tv.IsNil() {
			return latNil
		}
		if tv.Value != nil {
			return latConst | latNonNil
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := f.Uses[x]; ok {
			return f.flags[v]
		}
		return latUnknown
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return f.exprFlags(x.Args[0]) // conversion
		}
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if bi, ok := info.Uses[id].(*types.Builtin); ok {
				switch bi.Name() {
				case "make":
					out := latFlags(latNonNil)
					if len(x.Args) >= 2 {
						if tv, ok := info.Types[x.Args[1]]; ok && tv.Value != nil {
							if isChanMake(info, x) && positiveConst(tv) {
								out |= latBuffered
							}
						}
					}
					return out
				case "new":
					return latNonNil
				case "append":
					return latNonNil
				}
			}
		}
		return latUnknown
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return latNonNil
		}
		return latUnknown
	case *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit:
		return latNonNil
	case *ast.SliceExpr:
		return f.exprFlags(x.X)
	default:
		return latUnknown
	}
}

func isChanMake(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || !tv.IsType() {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

func positiveConst(tv types.TypeAndValue) bool {
	if tv.Value == nil {
		return false
	}
	s := tv.Value.ExactString()
	return s != "0" && !strings.HasPrefix(s, "-")
}
