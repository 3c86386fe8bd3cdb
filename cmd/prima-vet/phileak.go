package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// phileak is an interprocedural taint analysis guarding §4's audit
// vocabulary: fields marked prima:phi (audit.Entry's User/Data/
// Purpose/..., hdb.Principal.User) are protected health information
// and must not reach human-readable output — fmt.Print*/Fprint*,
// log.*, error strings (fmt.Errorf, errors.New) — unless the value
// passed through a prima:redact sanitizer first.
//
// Taint is tracked three ways:
//   - reading a prima:phi field taints the expression;
//   - a value whose type transitively contains a prima:phi field (a
//     "carrier": audit.Entry, federation.Conflict, slices thereof)
//     taints any call argument position it occupies, so formatting a
//     whole Entry with %v is caught without field-level flow;
//   - function summaries propagate taint through returns and into
//     parameters across the call graph (including interface calls via
//     CHA), so a helper that prints its argument flags its callers.
//
// Structured encoders (encoding/json, encoding/csv) are deliberately
// not sinks: persisting audit entries is the log's job; the analyzer
// polices human-readable/diagnostic output.
var phileakAnalyzer = &Analyzer{
	Name:       "phileak",
	Doc:        "no prima:phi data may reach prints, logs, or error strings except through prima:redact helpers",
	RunProgram: runPhileak,
}

// Taint bitmask: bit 0 = carries PHI outright; bit i+1 = depends on
// parameter i (receiver counts as parameter 0 on methods).
const phiSrc uint64 = 1

func paramBit(i int) uint64 {
	if i >= 62 {
		i = 62
	}
	return 1 << uint(i+1)
}

// phiSummary is the per-function interprocedural summary.
type phiSummary struct {
	ret   uint64 // taint of the return value(s)
	sinks uint64 // parameter bits that may reach a sink inside
}

func runPhileak(prog *Program) []Finding {
	sums := make(map[*CGNode]*phiSummary, len(prog.CG.Nodes()))
	for _, n := range prog.CG.Nodes() {
		sums[n] = &phiSummary{}
	}
	// Global fixpoint over summaries; monotone (bits only get added).
	for changed := true; changed; {
		changed = false
		for _, n := range prog.CG.Nodes() {
			a := newPhiAnalysis(prog, n, sums)
			ret, sinks := a.run(nil)
			s := sums[n]
			if ret|s.ret != s.ret || sinks|s.sinks != s.sinks {
				s.ret |= ret
				s.sinks |= sinks
				changed = true
			}
		}
	}
	// Reporting pass with converged summaries.
	var out []Finding
	for _, n := range prog.CG.Nodes() {
		a := newPhiAnalysis(prog, n, sums)
		a.run(func(pos token.Pos, msg string) {
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(pos),
				Analyzer: "phileak",
				Message:  msg,
			})
		})
	}
	return out
}

// phiAnalysis is the intra-function pass: a taint environment over the
// function's SSA values, iterated to a local fixpoint. Keying on SSA
// values instead of objects makes the analysis flow-sensitive for
// tracked locals — rebinding a variable to a clean value kills its
// taint, and taint merges only at phi nodes. Variables SSA does not
// track (address-taken, captured) fall back to their types.Object key,
// which degrades to the old flow-insensitive behavior.
type phiAnalysis struct {
	prog *Program
	n    *CGNode
	sums map[*CGNode]*phiSummary
	ssa  *FuncSSA
	env  map[any]uint64
}

func newPhiAnalysis(prog *Program, n *CGNode, sums map[*CGNode]*phiSummary) *phiAnalysis {
	a := &phiAnalysis{prog: prog, n: n, sums: sums, ssa: prog.SSA(n), env: make(map[any]uint64)}
	idx := make(map[types.Object]int)
	for i, obj := range paramObjs(n) {
		a.env[obj] = paramBit(i)
		idx[obj] = i
	}
	for _, v := range a.ssa.Values() {
		if v.Kind == valParam {
			if i, ok := idx[v.Obj]; ok {
				a.env[v] = paramBit(i)
			}
		}
	}
	return a
}

// propagate pushes taint along the SSA chains: an in-place update or a
// close carries the previous version's taint, a phi joins its
// operands. Reports whether anything changed.
func (a *phiAnalysis) propagate() bool {
	changed := false
	merge := func(v *SSAValue, t uint64) {
		if old := a.env[v]; old|t != old {
			a.env[v] = old | t
			changed = true
		}
	}
	for _, v := range a.ssa.Values() {
		switch v.Kind {
		case valUpdate, valClose:
			if v.Prev != nil {
				merge(v, a.env[v.Prev])
			}
		case valPhi:
			var t uint64
			for _, op := range v.Ops {
				t |= a.env[op]
			}
			merge(v, t)
		}
	}
	return changed
}

// run iterates assignments to a local fixpoint, then (when report is
// non-nil) walks the calls emitting findings. Returns the function's
// return-taint and param-to-sink masks.
func (a *phiAnalysis) run(report func(token.Pos, string)) (ret, sinks uint64) {
	for changed := true; changed; {
		changed = false
		ownBody(a.n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.AssignStmt:
				changed = a.assign(x) || changed
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						changed = a.valueSpec(vs) || changed
					}
				}
			case *ast.RangeStmt:
				t := a.taintOf(x.X)
				changed = a.bind(x.Key, t) || changed
				changed = a.bind(x.Value, t) || changed
			}
			return true
		})
		changed = a.propagate() || changed
	}

	ownBody(a.n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				// Bare return with named results: the results carry
				// whatever was assigned to them.
				for _, obj := range resultObjs(a.n) {
					ret |= a.env[obj]
				}
				break
			}
			for _, e := range x.Results {
				ret |= a.taintOf(e)
			}
		case *ast.CallExpr:
			// Only the sink bits matter here; a call's return taint
			// feeds the summary solely when its result is returned
			// (handled by taintOf at the ReturnStmt).
			_, sinks2 := a.checkCall(x, report)
			sinks |= sinks2
		}
		return true
	})
	return ret, sinks
}

// resultObjs returns the named result parameters of the node, if any.
func resultObjs(n *CGNode) []types.Object {
	var fl *ast.FieldList
	if n.Decl != nil {
		fl = n.Decl.Type.Results
	} else if n.Lit != nil {
		fl = n.Lit.Type.Results
	}
	if fl == nil {
		return nil
	}
	var out []types.Object
	defs := n.Pkg.Info.Defs
	for _, f := range fl.List {
		for _, name := range f.Names {
			if obj := defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// assign updates the environment for one assignment; reports change.
func (a *phiAnalysis) assign(x *ast.AssignStmt) bool {
	changed := false
	if len(x.Lhs) == len(x.Rhs) {
		for i := range x.Lhs {
			changed = a.bind(x.Lhs[i], a.taintOf(x.Rhs[i])) || changed
		}
		return changed
	}
	// a, b := f() — every lhs gets the call's taint.
	var t uint64
	for _, r := range x.Rhs {
		t |= a.taintOf(r)
	}
	for _, l := range x.Lhs {
		changed = a.bind(l, t) || changed
	}
	return changed
}

func (a *phiAnalysis) valueSpec(vs *ast.ValueSpec) bool {
	changed := false
	if len(vs.Names) == len(vs.Values) {
		for i := range vs.Names {
			changed = a.bindIdent(vs.Names[i], a.taintOf(vs.Values[i])) || changed
		}
		return changed
	}
	var t uint64
	for _, v := range vs.Values {
		t |= a.taintOf(v)
	}
	for _, name := range vs.Names {
		changed = a.bindIdent(name, t) || changed
	}
	return changed
}

// bind merges taint into the object behind an lvalue expression.
// Writing through a field or index taints the whole container
// (conservative, keeps the lattice small).
func (a *phiAnalysis) bind(lhs ast.Expr, t uint64) bool {
	if t == 0 || lhs == nil {
		return false
	}
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			return a.bindIdent(x, t)
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return false
		}
	}
}

func (a *phiAnalysis) bindIdent(id *ast.Ident, t uint64) bool {
	if id.Name == "_" {
		return false
	}
	// Tracked variables bind the SSA value this write defines, so the
	// taint belongs to this version only.
	var key any
	if v, ok := a.ssa.Defs[id]; ok {
		key = v
	} else {
		info := a.n.Pkg.Info
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return false
		}
		key = obj
	}
	old := a.env[key]
	if old|t == old {
		return false
	}
	a.env[key] = old | t
	return true
}

// taintOf computes the taint mask of an expression. Expressions of
// numeric or boolean type are never tainted: a count or a score
// derived from PHI (len of a per-user map, a coverage ratio) cannot
// render the PHI itself, and without this cut every statistic printed
// about an audit log would be a false positive.
//
// Error-typed expressions are never tainted either. An error only
// carries PHI if PHI was formatted into it, and that formatting site
// is itself a sink (fmt.Errorf, errors.New) or a param->sink edge
// (an error constructor embedding its argument) — the one place the
// leak can be fixed. Propagating taint through the error value as
// well would re-report the same leak at every `%w` wrap and
// log.Fatal(err) downstream of it.
func (a *phiAnalysis) taintOf(e ast.Expr) uint64 {
	t := a.taintOfRaw(e)
	if t == 0 {
		return 0
	}
	if tv, ok := a.n.Pkg.Info.Types[e]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString == 0 {
			return 0
		}
		if types.Identical(tv.Type, types.Universe.Lookup("error").Type()) {
			return 0
		}
	}
	return t
}

func (a *phiAnalysis) taintOfRaw(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	info := a.n.Pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := a.ssa.Uses[x]; ok {
			return a.env[v]
		}
		if obj := info.Uses[x]; obj != nil {
			return a.env[obj]
		}
		if obj := info.Defs[x]; obj != nil {
			return a.env[obj]
		}
		return 0
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok && a.prog.Markers.PHIFields[v] {
				return phiSrc
			}
			// Field reads are field-sensitive: selecting a non-PHI field
			// out of a tainted or carrier struct yields a clean value
			// (whole-value leaks are caught by the carrier rule at sinks).
			return 0
		}
		return a.taintOf(x.X)
	case *ast.CallExpr:
		ret, _ := a.checkCall(x, nil)
		return ret
	case *ast.IndexExpr:
		return a.taintOf(x.X)
	case *ast.SliceExpr:
		return a.taintOf(x.X)
	case *ast.StarExpr:
		return a.taintOf(x.X)
	case *ast.UnaryExpr:
		return a.taintOf(x.X)
	case *ast.BinaryExpr:
		return a.taintOf(x.X) | a.taintOf(x.Y)
	case *ast.CompositeLit:
		var t uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= a.taintOf(kv.Value)
			} else {
				t |= a.taintOf(el)
			}
		}
		return t
	case *ast.TypeAssertExpr:
		return a.taintOf(x.X)
	case *ast.FuncLit:
		return 0
	default:
		return 0
	}
}

// argTaint is taintOf plus the carrier rule: a value whose type
// transitively contains PHI taints the argument slot it fills.
func (a *phiAnalysis) argTaint(e ast.Expr) uint64 {
	t := a.taintOf(e)
	if tv, ok := a.n.Pkg.Info.Types[e]; ok && a.prog.Markers.phiCarrier(tv.Type) {
		t |= phiSrc
	}
	return t
}

// checkCall classifies one call: sanitizer, sink, module call with a
// summary, or opaque propagator. Returns the call's return taint and
// any parameter->sink bits it induces for the enclosing function.
// When report is non-nil, findings are emitted.
func (a *phiAnalysis) checkCall(call *ast.CallExpr, report func(token.Pos, string)) (ret, sinks uint64) {
	info := a.n.Pkg.Info

	// Conversions propagate.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		var t uint64
		for _, arg := range call.Args {
			t |= a.taintOf(arg)
		}
		return t, 0
	}

	// Sanitizer: output is clean by decree.
	if fn := calleeFunc(info, call); fn != nil && a.prog.Markers.Redactors[fn] {
		return 0, 0
	}

	// Std sink?
	if name, skip, isSink := phiSink(info, call); isSink {
		for i, arg := range call.Args {
			if i < skip {
				continue
			}
			t := a.argTaint(arg)
			if t&phiSrc != 0 && report != nil {
				report(arg.Pos(), fmt.Sprintf("PHI may reach %s without redaction (route it through a prima:redact helper)", name))
			}
			sinks |= t &^ phiSrc
		}
		return 0, sinks
	}

	// Module callees with summaries (direct, method, interface/CHA).
	if callees := calleesAt(a.n, call); len(callees) > 0 {
		args := callArgsOf(info, call)
		for _, callee := range callees {
			s := a.sums[callee]
			for i, arg := range args {
				t := a.argTaint(arg)
				if s.sinks&paramBit(i) == 0 {
					continue
				}
				if t&phiSrc != 0 && report != nil {
					report(arg.Pos(), fmt.Sprintf("PHI passed to %s, which may print or log it without redaction", callee.Name()))
				}
				sinks |= t &^ phiSrc
			}
			if s.ret&phiSrc != 0 {
				ret |= phiSrc
			}
			for i, arg := range args {
				if s.ret&paramBit(i) != 0 {
					ret |= a.argTaint(arg)
				}
			}
		}
		return ret, sinks
	}

	// Opaque (standard library) call: conservative propagator — the
	// result carries whatever the arguments carried, carrier types
	// included (fmt.Sprintf("%v", entry) yields a tainted string).
	// Exception: a bare error result stays clean — std errors report
	// what went wrong, they do not embed the encoded value (the calls
	// that do build strings from values are the sinks above).
	if tv, ok := info.Types[call]; ok && tv.Type != nil &&
		types.Identical(tv.Type, types.Universe.Lookup("error").Type()) {
		return 0, 0
	}
	var t uint64
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t |= a.taintOf(sel.X)
	}
	for _, arg := range call.Args {
		t |= a.argTaint(arg)
	}
	return t, 0
}

// calleeFunc resolves the statically-called function object, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// phiSink classifies the standard-library human-readable sinks.
// Returns the display name, the number of leading arguments to skip
// (the writer of Fprint*), and whether the call is a sink at all.
func phiSink(info *types.Info, call *ast.CallExpr) (name string, skip int, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", 0, false
	}
	pkg, fname := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "fmt":
		switch fname {
		case "Print", "Printf", "Println", "Errorf":
			return "fmt." + fname, 0, true
		case "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fname, 1, true
		}
	case "errors":
		if fname == "New" {
			return "errors.New", 0, true
		}
	case "log":
		if strings.HasPrefix(fname, "Print") || strings.HasPrefix(fname, "Fatal") || strings.HasPrefix(fname, "Panic") {
			return "log." + fname, 0, true
		}
	}
	return "", 0, false
}
