package policy

import (
	"fmt"
	"testing"

	"repro/internal/vocab"
)

// fixtureRules builds a mix of composite, ground, foreign-value, and
// duplicate-range rules over the paper vocabulary — enough shapes to
// exercise every branch of the symbolic algebra.
func fixtureRules(t *testing.T) []Rule {
	t.Helper()
	mk := func(spec string) Rule {
		r, err := ParseRule(spec)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", spec, err)
		}
		return r
	}
	return []Rule{
		mk("data=demographic & purpose=billing & authorized=clerk"),
		mk("data=clinical & purpose=treatment & authorized=doctor"),
		mk("data=general & purpose=treatment & authorized=nurse"),
		mk("data=referral & purpose=treatment & authorized=nurse"), // inside previous
		mk("data=phi & purpose=research & authorized=researcher"),
		mk("data=address & purpose=billing & authorized=clerk"), // ground, inside first
		mk("data=xray & purpose=treatment & authorized=doctor"), // foreign value
		mk("data=financial & authorized=auditor"),               // different signature
		mk("consent=opt_in & data=psychiatry"),                  // foreign attribute
	}
}

// subsetsOf enumerates a few interesting policies from the fixture
// rules: every singleton, a sliding window of pairs/triples, and the
// whole set.
func fixturePolicies(t *testing.T) []*Policy {
	rules := fixtureRules(t)
	var out []*Policy
	for i, r := range rules {
		out = append(out, FromRules(fmt.Sprintf("p%d", i), r))
	}
	for i := 0; i+2 < len(rules); i++ {
		out = append(out, FromRules(fmt.Sprintf("w%d", i), rules[i:i+3]...))
	}
	out = append(out, FromRules("all", rules...))
	return out
}

// TestSymbolicCardMatchesMaterialized pins SymRange.Card against the
// materializing oracle on every fixture policy.
func TestSymbolicCardMatchesMaterialized(t *testing.T) {
	v := vocab.Sample()
	for _, p := range fixturePolicies(t) {
		rg, err := NewRange(p, v, 0)
		if err != nil {
			t.Fatalf("%s: NewRange: %v", p.Name, err)
		}
		sym := NewSymRange(p, v)
		if got, want := sym.Card(), int64(rg.Len()); got != want {
			t.Errorf("%s: symbolic Card = %d, materialized = %d", p.Name, got, want)
		}
	}
}

// TestSymbolicIntersectMatchesMaterialized pins IntersectCard,
// Subsumes, and Disjoint against the oracle over every policy pair.
func TestSymbolicIntersectMatchesMaterialized(t *testing.T) {
	v := vocab.Sample()
	pols := fixturePolicies(t)
	mats := make([]*Range, len(pols))
	syms := make([]*SymRange, len(pols))
	for i, p := range pols {
		var err error
		mats[i], err = NewRange(p, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		syms[i] = NewSymRange(p, v)
	}
	for i := range pols {
		for j := range pols {
			want := int64(mats[i].IntersectCount(mats[j]))
			got := syms[i].IntersectCard(syms[j])
			if got != want {
				t.Errorf("%s ∩ %s: symbolic %d, materialized %d", pols[i].Name, pols[j].Name, got, want)
			}
			wantSub := want == int64(mats[j].Len())
			if gotSub := syms[i].Subsumes(syms[j]); gotSub != wantSub {
				t.Errorf("%s ⊇ %s: symbolic %v, materialized %v", pols[i].Name, pols[j].Name, gotSub, wantSub)
			}
			if gotDis := syms[i].Disjoint(syms[j]); gotDis != (want == 0) {
				t.Errorf("%s disjoint %s: symbolic %v, want %v", pols[i].Name, pols[j].Name, gotDis, want == 0)
			}
		}
	}
}

// TestSymbolicCoversMatchesGroundings pins SymRange.Covers (the Prune
// probe) against enumerating a rule's groundings.
func TestSymbolicCoversMatchesGroundings(t *testing.T) {
	v := vocab.Sample()
	rules := fixtureRules(t)
	for _, p := range fixturePolicies(t) {
		rg, err := NewRange(p, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		sym := NewSymRange(p, v)
		for _, r := range rules {
			grounds, truncated := r.Groundings(v, DefaultRangeLimit)
			if truncated {
				t.Fatalf("groundings of %s overflowed", r)
			}
			want := true
			for _, g := range grounds {
				if !rg.Contains(g) {
					want = false
					break
				}
			}
			sr, ok := CompileRule(r, v)
			if !ok {
				t.Fatalf("CompileRule(%s) rejected non-zero rule", r)
			}
			if got := sym.Covers(sr); got != want {
				t.Errorf("%s covers %s: symbolic %v, materialized %v", p.Name, r, got, want)
			}
		}
	}
}

// TestSymbolicContainsTriple pins ContainsTriple against the
// materialized ContainsKey over the full ground cross-product plus
// composite and foreign probes.
func TestSymbolicContainsTriple(t *testing.T) {
	v := vocab.Sample()
	for _, p := range fixturePolicies(t) {
		rg, err := NewRange(p, v, 0)
		if err != nil {
			t.Fatal(err)
		}
		sym := NewSymRange(p, v)
		datas := append(v.Hierarchy("data").Leaves(), "clinical", "xray")
		purposes := append(v.Hierarchy("purpose").Leaves(), "nonexistent_purpose")
		auths := append(v.Hierarchy("authorized").Leaves(), "phi")
		for _, d := range datas {
			for _, pu := range purposes {
				for _, a := range auths {
					want := rg.ContainsKey(TripleKey(d, pu, a))
					got := sym.ContainsTriple(v, d, pu, a)
					if got != want {
						t.Errorf("%s: ContainsTriple(%s,%s,%s) = %v, materialized %v", p.Name, d, pu, a, got, want)
					}
				}
			}
		}
	}
}

// TestCompileRuleZero: the zero rule has no symbolic range.
func TestCompileRuleZero(t *testing.T) {
	if _, ok := CompileRule(Rule{}, vocab.Sample()); ok {
		t.Fatal("zero rule compiled")
	}
	rg := CompileRules([]Rule{{}}, vocab.Sample())
	if rg.Card() != 0 {
		t.Fatalf("zero-rule range card = %d", rg.Card())
	}
}

// TestSymRuleAlgebra spot-checks the per-rule operations on known
// paper cardinalities (Figure 1: clinical=5, general=3, phi=10).
func TestSymRuleAlgebra(t *testing.T) {
	v := vocab.Sample()
	mk := func(spec string) SymRule {
		r, err := ParseRule(spec)
		if err != nil {
			t.Fatal(err)
		}
		sr, ok := CompileRule(r, v)
		if !ok {
			t.Fatalf("compile %q", spec)
		}
		return sr
	}
	clin := mk("data=clinical & purpose=treatment & authorized=nurse")
	gen := mk("data=general & purpose=treatment & authorized=nurse")
	fin := mk("data=financial & purpose=billing & authorized=clerk")
	if clin.Card() != 5 || gen.Card() != 3 || fin.Card() != 2 {
		t.Fatalf("cards: %d %d %d", clin.Card(), gen.Card(), fin.Card())
	}
	if !clin.Subsumes(gen) || gen.Subsumes(clin) {
		t.Fatal("subsumption wrong")
	}
	if !clin.Disjoint(fin) {
		t.Fatal("disjoint wrong")
	}
	if got := clin.IntersectCard(gen); got != 3 {
		t.Fatalf("IntersectCard = %d", got)
	}
}

// TestSymCache: generation-validated memoization semantics.
func TestSymCache(t *testing.T) {
	v := vocab.Sample()
	p := FromRules("store", fixtureRules(t)...)
	c := NewSymCache()
	a := c.Range(p, v)
	if b := c.Range(p, v); b != a {
		t.Fatal("unchanged inputs recompiled")
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d", c.Len())
	}
	r, err := ParseRule("data=payment_history & purpose=payment & authorized=clerk")
	if err != nil {
		t.Fatal(err)
	}
	p.Add(r)
	fresh := c.Range(p, v)
	if fresh == a {
		t.Fatal("policy mutation did not invalidate")
	}
	if fresh.Card() != a.Card()+1 {
		t.Fatalf("card %d after add, was %d", fresh.Card(), a.Card())
	}
	v.MustAttribute("data").MustAdd("financial", "copay")
	if c.Range(p, v) == fresh {
		t.Fatal("vocabulary mutation did not invalidate")
	}
	if c.Len() != 1 {
		t.Fatalf("cache len after revalidation = %d, want the entry replaced in place", c.Len())
	}
}

// TestUnionCardOverlap: union cardinality with genuine multi-box
// overlap in several dimensions (the inclusion–exclusion core).
func TestUnionCardOverlap(t *testing.T) {
	v := vocab.Sample()
	specs := []string{
		"data=clinical & purpose=treatment & authorized=doctor",
		"data=general & purpose=healthcare & authorized=doctor",
		"data=phi & purpose=treatment & authorized=medical_staff",
	}
	var rules []Rule
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	sym := CompileRules(rules, v)
	rg, err := NewRange(FromRules("o", rules...), v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sym.Card(), int64(rg.Len()); got != want {
		t.Fatalf("overlapping union card = %d, want %d", got, want)
	}
}
