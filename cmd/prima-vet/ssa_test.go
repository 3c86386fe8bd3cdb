package main

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSSAGolden pins phi placement and def-use shape on the loop-heavy
// cfgloop fixtures against testdata/cfgloop/ssa.golden. Regenerate
// with PRIMA_VET_UPDATE=1 go test -run TestSSAGolden ./cmd/prima-vet.
func TestSSAGolden(t *testing.T) {
	_, pkg := loadFixture(t, "cfgloop")
	g := BuildCallGraph([]*Package{pkg})

	var sb strings.Builder
	for _, n := range g.Nodes() {
		if n.Fn == nil {
			continue
		}
		f := BuildSSA(n)
		fmt.Fprintf(&sb, "== %s ==\n%s", n.Fn.Name(), f.Dump())
	}
	got := sb.String()

	golden := filepath.Join("testdata", "cfgloop", "ssa.golden")
	if os.Getenv("PRIMA_VET_UPDATE") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (PRIMA_VET_UPDATE=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("SSA dump diverged from %s:\n-- got --\n%s-- want --\n%s", golden, got, want)
	}
}

// TestSSAInvariants checks structural properties the analyzers rely on
// over every function in the repo's own main packages: uses resolve to
// live values, phi operand counts match predecessor counts, versions
// of one object are unique, and update/close chains terminate.
func TestSSAInvariants(t *testing.T) {
	for _, fixture := range []string{"cfgloop", "callgraph", "lockorder", "phileak", "arenasafe"} {
		t.Run(fixture, func(t *testing.T) {
			_, pkg := loadFixture(t, fixture)
			g := BuildCallGraph([]*Package{pkg})
			for _, n := range g.Nodes() {
				f := BuildSSA(n)
				live := make(map[*SSAValue]bool)
				seen := make(map[string]bool)
				for _, v := range f.Values() {
					live[v] = true
					key := fmt.Sprintf("%p#%d", v.Obj, v.Num)
					if seen[key] {
						t.Errorf("%s: duplicate version %s", n.Name(), v)
					}
					seen[key] = true
				}
				preds := make(map[*Block]int)
				for _, blk := range f.CFG.Blocks {
					for _, s := range blk.Succs {
						preds[s]++
					}
				}
				for blk, phis := range f.PhiOf {
					for _, phi := range phis {
						if len(phi.Ops) != preds[blk] {
							t.Errorf("%s: phi %s has %d ops, block b%d has %d preds",
								n.Name(), phi, len(phi.Ops), blk.Index, preds[blk])
						}
						for _, op := range phi.Ops {
							if !live[op] {
								t.Errorf("%s: phi %s references pruned value %s", n.Name(), phi, op)
							}
						}
					}
				}
				for id, v := range f.Uses {
					if !live[v] {
						t.Errorf("%s: use of %s at %v resolves to pruned value %s",
							n.Name(), id.Name, pkg.Fset.Position(id.Pos()), v)
					}
					if v.Obj != pkg.Info.Uses[id] && pkg.Info.Uses[id] != nil {
						t.Errorf("%s: use %s resolved to value of %s", n.Name(), id.Name, v.Obj.Name())
					}
				}
				for _, v := range f.Values() {
					for p, hops := v.Prev, 0; p != nil; p, hops = p.Prev, hops+1 {
						if hops > len(f.Values()) {
							t.Fatalf("%s: Prev chain of %s does not terminate", n.Name(), v)
						}
						if !live[p] {
							t.Errorf("%s: %s chains to pruned value %s", n.Name(), v, p)
						}
					}
				}
			}
		})
	}
}

// Dump renders the SSA form compactly and deterministically: per
// join block its phis with operands, then per variable the def and
// use counts — the shape the golden test pins.
func (f *FuncSSA) Dump() string {
	var sb strings.Builder
	var blocks []*Block
	for blk := range f.PhiOf {
		blocks = append(blocks, blk)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Index < blocks[j].Index })
	for _, blk := range blocks {
		phis := append([]*SSAValue(nil), f.PhiOf[blk]...)
		sort.Slice(phis, func(i, j int) bool {
			if phis[i].Obj.Name() != phis[j].Obj.Name() {
				return phis[i].Obj.Name() < phis[j].Obj.Name()
			}
			return phis[i].Num < phis[j].Num
		})
		for _, phi := range phis {
			fmt.Fprintf(&sb, "b%d: %s#%d = phi(", blk.Index, phi.Obj.Name(), phi.Num)
			for i, op := range phi.Ops {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%s#%d", op.Obj.Name(), op.Num)
			}
			sb.WriteString(")\n")
		}
	}
	// Per-variable def/use totals.
	type stat struct{ defs, uses int }
	stats := make(map[string]*stat)
	name := func(obj types.Object) *stat {
		s := stats[obj.Name()]
		if s == nil {
			s = &stat{}
			stats[obj.Name()] = s
		}
		return s
	}
	for _, v := range f.values {
		if v.Kind != valParam && v.Kind != valZero {
			name(v.Obj).defs++
		}
	}
	for _, v := range f.values {
		name(v.Obj).uses += len(f.UseSites[v])
	}
	var names []string
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(&sb, "%s: defs=%d uses=%d\n", n, s.defs, s.uses)
	}
	return sb.String()
}
