package main

import (
	"go/ast"
	"go/token"
)

// This file is the first half of prima-vet's interprocedural layer: a
// per-function control-flow graph and a fixpoint dataflow engine over
// it. The CFG is deliberately statement-granular — each basic block
// carries the ast.Stmt nodes executed in order — because the analyzers
// built on top (lockorder, arenasafe) need to interleave fact updates
// with call-site inspection inside a block.

// Block is one basic block: statements executed in order, then a
// transfer of control to one of Succs.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block
}

// addSucc links b -> s, ignoring nil and duplicate edges.
func (b *Block) addSucc(s *Block) {
	if s == nil {
		return
	}
	for _, t := range b.Succs {
		if t == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Blocks []*Block
	// Ranges maps a range-loop head block to its RangeStmt. The head
	// carries only the range expression as a synthetic statement; the
	// SSA builder needs the original statement to model the implicit
	// per-iteration key/value assignment.
	Ranges map[*Block]*ast.RangeStmt
}

// cfgBuilder tracks the loop/switch context needed to wire break,
// continue, goto and fallthrough edges.
type cfgBuilder struct {
	cfg *CFG

	// breakTo / continueTo are stacks of targets; the innermost
	// breakable/continuable construct is last.
	breakTo    []*Block
	continueTo []*Block

	// labeled break/continue and goto resolution.
	labelBreak    map[string]*Block
	labelContinue map[string]*Block
	labelBlocks   map[string]*Block   // label -> block starting the labeled stmt
	pendingGotos  map[string][]*Block // unresolved forward gotos
}

// BuildCFG constructs the CFG of a function body. Every function has
// at least an entry block; unreachable trailing code still receives
// blocks (harmless for may-analyses).
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:           &CFG{},
		labelBreak:    make(map[string]*Block),
		labelContinue: make(map[string]*Block),
		labelBlocks:   make(map[string]*Block),
		pendingGotos:  make(map[string][]*Block),
	}
	entry := b.newBlock()
	b.cfg.Entry = entry
	exit := b.stmts(body.List, entry, "")
	_ = exit
	// Resolve any gotos to labels that were never declared (broken
	// code); leave them without successors.
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// stmts appends the statement list to cur and returns the block where
// control continues afterwards (nil when control cannot fall through).
// label carries a pending label for the next loop/switch statement.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *Block, label string) *Block {
	for _, s := range list {
		if cur == nil {
			// Dead code after return/branch: give it a fresh
			// disconnected block so its facts are still computable.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur, label)
		label = ""
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block, label string) *Block {
	switch x := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(x.List, cur, "")

	case *ast.LabeledStmt:
		// Start a fresh block so gotos have a landing point.
		lb := b.newBlock()
		cur.addSucc(lb)
		b.labelBlocks[x.Label.Name] = lb
		for _, g := range b.pendingGotos[x.Label.Name] {
			g.addSucc(lb)
		}
		delete(b.pendingGotos, x.Label.Name)
		return b.stmt(x.Stmt, lb, x.Label.Name)

	case *ast.IfStmt:
		if x.Init != nil {
			cur.Stmts = append(cur.Stmts, x.Init)
		}
		cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: x.Cond})
		thenB := b.newBlock()
		cur.addSucc(thenB)
		thenOut := b.stmts(x.Body.List, thenB, "")
		join := b.newBlock()
		if thenOut != nil {
			thenOut.addSucc(join)
		}
		if x.Else != nil {
			elseB := b.newBlock()
			cur.addSucc(elseB)
			elseOut := b.stmt(x.Else, elseB, "")
			if elseOut != nil {
				elseOut.addSucc(join)
			}
		} else {
			cur.addSucc(join)
		}
		return join

	case *ast.ForStmt:
		if x.Init != nil {
			cur.Stmts = append(cur.Stmts, x.Init)
		}
		head := b.newBlock()
		cur.addSucc(head)
		if x.Cond != nil {
			head.Stmts = append(head.Stmts, &ast.ExprStmt{X: x.Cond})
		}
		exit := b.newBlock()
		post := b.newBlock()
		if x.Post != nil {
			post.Stmts = append(post.Stmts, x.Post)
		}
		post.addSucc(head)
		if x.Cond != nil {
			head.addSucc(exit)
		}
		b.pushLoop(exit, post, label)
		body := b.newBlock()
		head.addSucc(body)
		bodyOut := b.stmts(x.Body.List, body, "")
		if bodyOut != nil {
			bodyOut.addSucc(post)
		}
		b.popLoop(label)
		return exit

	case *ast.RangeStmt:
		head := b.newBlock()
		cur.addSucc(head)
		// The range expression and per-iteration assignment live in the
		// head so facts flow through them each iteration.
		head.Stmts = append(head.Stmts, &ast.ExprStmt{X: x.X})
		if b.cfg.Ranges == nil {
			b.cfg.Ranges = make(map[*Block]*ast.RangeStmt)
		}
		b.cfg.Ranges[head] = x
		exit := b.newBlock()
		head.addSucc(exit)
		b.pushLoop(exit, head, label)
		body := b.newBlock()
		head.addSucc(body)
		bodyOut := b.stmts(x.Body.List, body, "")
		if bodyOut != nil {
			bodyOut.addSucc(head)
		}
		b.popLoop(label)
		return exit

	case *ast.SwitchStmt:
		if x.Init != nil {
			cur.Stmts = append(cur.Stmts, x.Init)
		}
		if x.Tag != nil {
			cur.Stmts = append(cur.Stmts, &ast.ExprStmt{X: x.Tag})
		}
		return b.switchClauses(x.Body.List, cur, label)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			cur.Stmts = append(cur.Stmts, x.Init)
		}
		cur.Stmts = append(cur.Stmts, x.Assign)
		return b.switchClauses(x.Body.List, cur, label)

	case *ast.SelectStmt:
		if len(x.Body.List) == 0 {
			// select{} blocks forever. Keep the statement in the block
			// so analyzers (goleak) can see the divergence, and stop
			// control flow: nothing after it executes.
			cur.Stmts = append(cur.Stmts, x)
			return nil
		}
		join := b.newBlock()
		b.breakTo = append(b.breakTo, join)
		if label != "" {
			b.labelBreak[label] = join
		}
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			cur.addSucc(blk)
			if cc.Comm != nil {
				blk.Stmts = append(blk.Stmts, cc.Comm)
			}
			out := b.stmts(cc.Body, blk, "")
			if out != nil {
				out.addSucc(join)
			}
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		return join

	case *ast.ReturnStmt:
		cur.Stmts = append(cur.Stmts, x)
		return nil

	case *ast.BranchStmt:
		switch x.Tok {
		case token.BREAK:
			if x.Label != nil {
				cur.addSucc(b.labelBreak[x.Label.Name])
			} else if n := len(b.breakTo); n > 0 {
				cur.addSucc(b.breakTo[n-1])
			}
			return nil
		case token.CONTINUE:
			if x.Label != nil {
				cur.addSucc(b.labelContinue[x.Label.Name])
			} else if n := len(b.continueTo); n > 0 {
				cur.addSucc(b.continueTo[n-1])
			}
			return nil
		case token.GOTO:
			if x.Label != nil {
				if t, ok := b.labelBlocks[x.Label.Name]; ok {
					cur.addSucc(t)
				} else {
					b.pendingGotos[x.Label.Name] = append(b.pendingGotos[x.Label.Name], cur)
				}
			}
			return nil
		case token.FALLTHROUGH:
			// Handled by switchClauses via the fallthrough edge; the
			// statement itself ends the block.
			cur.Stmts = append(cur.Stmts, x)
			return cur
		}
		return cur

	default:
		// Plain statements: expression, assignment, declaration, defer,
		// go, send, incdec, empty.
		cur.Stmts = append(cur.Stmts, s)
		return cur
	}
}

// switchClauses wires the case clauses of a switch/type-switch: each
// clause branches from the head, all clauses join; a missing default
// adds a head->join edge; fallthrough adds clause->next-clause.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, head *Block, label string) *Block {
	join := b.newBlock()
	b.breakTo = append(b.breakTo, join)
	if label != "" {
		b.labelBreak[label] = join
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		head.addSucc(blocks[i])
	}
	hasDefault := false
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			blocks[i].Stmts = append(blocks[i].Stmts, &ast.ExprStmt{X: e})
		}
		out := b.stmts(cc.Body, blocks[i], "")
		if out != nil {
			if fallsThrough(cc.Body) && i+1 < len(blocks) {
				out.addSucc(blocks[i+1])
			} else {
				out.addSucc(join)
			}
		}
	}
	if !hasDefault {
		head.addSucc(join)
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	return join
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) pushLoop(brk, cont *Block, label string) {
	b.breakTo = append(b.breakTo, brk)
	b.continueTo = append(b.continueTo, cont)
	if label != "" {
		b.labelBreak[label] = brk
		b.labelContinue[label] = cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.continueTo = b.continueTo[:len(b.continueTo)-1]
}

// ---- fixpoint dataflow engine ----

// factSet is a set of opaque fact names (lock classes, published
// variables, tainted objects).
type factSet map[string]bool

func (s factSet) clone() factSet {
	out := make(factSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s factSet) equal(t factSet) bool {
	if len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

func (s factSet) union(t factSet) factSet {
	out := s.clone()
	for k := range t {
		out[k] = true
	}
	return out
}

// FixpointResult carries the computed in-set of every block, indexed
// by Block.Index, plus the number of worklist iterations (exposed so
// the termination test can assert the engine converged).
type FixpointResult struct {
	In         []factSet
	Iterations int
}

// Fixpoint runs a forward may-analysis to a fixpoint: in[entry] =
// entryIn, in[b] = union of out[preds], out[b] = transfer(b, in[b]).
// transfer must be monotone in its input for termination; the engine
// additionally bounds iterations by blocks x (facts+2) as a defense
// against a non-monotone transfer, which is plenty for any monotone
// analysis on this lattice.
func (g *CFG) Fixpoint(entryIn factSet, transfer func(*Block, factSet) factSet) FixpointResult {
	n := len(g.Blocks)
	in := make([]factSet, n)
	out := make([]factSet, n)
	for i := range in {
		in[i] = factSet{}
		out[i] = factSet{}
	}
	if g.Entry != nil {
		in[g.Entry.Index] = entryIn.clone()
	}

	// Pre-compute predecessors.
	preds := make([][]*Block, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}

	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	inWork := make([]bool, n)
	for i := range inWork {
		inWork[i] = true
	}
	iterations := 0
	// Fact universe is discovered as the analysis runs; the bound below
	// is recomputed as it grows.
	maxFacts := 0
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b.Index] = false
		iterations++

		newIn := in[b.Index]
		if b != g.Entry {
			newIn = factSet{}
		} else {
			newIn = entryIn.clone()
		}
		for _, p := range preds[b.Index] {
			newIn = newIn.union(out[p.Index])
		}
		newOut := transfer(b, newIn.clone())
		if len(newOut) > maxFacts {
			maxFacts = len(newOut)
		}
		if iterations > (n+1)*(maxFacts+2)*4 {
			break // defensive bound; a monotone transfer never hits it
		}
		in[b.Index] = newIn
		if newOut.equal(out[b.Index]) {
			continue
		}
		out[b.Index] = newOut
		for _, s := range b.Succs {
			if !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return FixpointResult{In: in, Iterations: iterations}
}
