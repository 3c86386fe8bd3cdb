package policy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vocab"
)

func sampleVocab() *vocab.Vocabulary { return vocab.Sample() }

func TestTermBasics(t *testing.T) {
	tm := T("data", "demographic")
	if tm.String() != "(data, demographic)" {
		t.Errorf("String() = %q", tm.String())
	}
	if tm.Key() != "data=demographic" {
		t.Errorf("Key() = %q", tm.Key())
	}
	v := sampleVocab()
	if tm.IsGround(v) {
		t.Error("demographic should be composite") // Definition 2
	}
	if !T("data", "gender").IsGround(v) {
		t.Error("gender should be ground")
	}
}

func TestTermGroundTerms(t *testing.T) {
	v := sampleVocab()
	got := T("data", "demographic").GroundTerms(v)
	want := []Term{
		{Attr: "data", Value: "address"},
		{Attr: "data", Value: "birthdate"},
		{Attr: "data", Value: "gender"},
		{Attr: "data", Value: "phone"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroundTerms = %v, want %v", got, want)
	}
}

func TestTermEquivalence(t *testing.T) {
	v := sampleVocab()
	// Definition 4 examples from §3.1.
	if !T("data", "address").Equivalent(T("data", "demographic"), v) {
		t.Error("RT2 should be equivalent to RT1")
	}
	if !T("data", "gender").Equivalent(T("data", "demographic"), v) {
		t.Error("RT3 should be equivalent to RT1")
	}
	if T("data", "address").Equivalent(T("purpose", "address"), v) {
		t.Error("terms with different attributes cannot be equivalent")
	}
	if T("data", "address").Equivalent(T("data", "gender"), v) {
		t.Error("disjoint ground terms are not equivalent")
	}
}

func TestNewRuleNormalization(t *testing.T) {
	r := MustRule(T("purpose", "billing"), T("data", "insurance"), T("authorized", "nurse"))
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Terms sorted by attribute.
	if r.Terms()[0].Attr != "authorized" || r.Terms()[1].Attr != "data" {
		t.Errorf("terms not normalized: %v", r.Terms())
	}
	// Exact duplicates collapse.
	r2 := MustRule(T("data", "x"), T("Data", "X"))
	if r2.Len() != 1 {
		t.Errorf("duplicate terms not collapsed: %v", r2)
	}
}

func TestNewRuleErrors(t *testing.T) {
	if _, err := NewRule(); err == nil {
		t.Error("empty rule accepted (Definition 5 requires n ≥ 1)")
	}
	if _, err := NewRule(T("", "x")); err == nil {
		t.Error("empty attribute accepted")
	}
	if _, err := NewRule(T("a", "")); err == nil {
		t.Error("empty value accepted")
	}
	if _, err := NewRule(T("data", "x"), T("data", "y")); err == nil {
		t.Error("conflicting assignments for one attribute accepted")
	}
}

func TestRuleStringAndKey(t *testing.T) {
	r := MustRule(T("data", "insurance"), T("purpose", "billing"), T("authorized", "nurse"))
	want := "{(authorized, nurse) ∧ (data, insurance) ∧ (purpose, billing)}"
	if r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
	if r.Key() != "authorized=nurse&data=insurance&purpose=billing" {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestRuleValueAndProject(t *testing.T) {
	r := MustRule(T("data", "referral"), T("purpose", "treatment"), T("authorized", "nurse"))
	if v, ok := r.Value("Purpose"); !ok || v != "treatment" {
		t.Errorf("Value(Purpose) = %q, %v", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Error("Value(nope) should be absent")
	}
	p := r.Project("data", "authorized")
	if p.Len() != 2 {
		t.Errorf("Project kept %d terms", p.Len())
	}
	if _, ok := p.Value("purpose"); ok {
		t.Error("Project kept excluded attribute")
	}
	if !r.Project("zzz").IsZero() {
		t.Error("Project with no matches should be zero")
	}
}

func TestGroundings(t *testing.T) {
	v := sampleVocab()
	r := MustRule(T("data", "demographic"), T("purpose", "billing"), T("authorized", "clerk"))
	gs, truncated := r.Groundings(v, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	if len(gs) != 4 { // 4 demographic leaves × 1 × 1
		t.Fatalf("got %d groundings, want 4: %v", len(gs), gs)
	}
	for _, g := range gs {
		if !g.IsGround(v) {
			t.Errorf("grounding %v is not ground", g)
		}
		if g.Len() != r.Len() {
			t.Errorf("grounding cardinality changed: %v", g)
		}
		if !r.Equivalent(g, v) {
			t.Errorf("rule not equivalent to its own grounding %v", g)
		}
		if !r.Covers(g, v) {
			t.Errorf("rule does not cover its own grounding %v", g)
		}
	}
}

func TestGroundingsLimit(t *testing.T) {
	v := sampleVocab()
	r := MustRule(T("data", "phi"), T("purpose", "healthcare"), T("authorized", "medical_staff"))
	all, truncated := r.Groundings(v, 0)
	if truncated {
		t.Fatal("unexpected truncation")
	}
	want := 11 * 3 * 4 // phi leaves × healthcare leaves × medical_staff leaves
	if len(all) != want {
		t.Fatalf("got %d groundings, want %d", len(all), want)
	}
	few, truncated := r.Groundings(v, 5)
	if !truncated || len(few) != 5 {
		t.Errorf("limit=5: got %d rules, truncated=%v", len(few), truncated)
	}
	exact, truncated := r.Groundings(v, want)
	if truncated || len(exact) != want {
		t.Errorf("limit=total: got %d rules, truncated=%v", len(exact), truncated)
	}
}

func TestRuleEquivalenceDefinition6(t *testing.T) {
	v := sampleVocab()
	a := MustRule(T("data", "address"), T("purpose", "billing"))
	b := MustRule(T("data", "demographic"), T("purpose", "billing"))
	c := MustRule(T("data", "address"), T("purpose", "billing"), T("authorized", "clerk"))
	d := MustRule(T("data", "referral"), T("purpose", "billing"))
	if !a.Equivalent(b, v) || !b.Equivalent(a, v) {
		t.Error("a ≈ b expected (address within demographic)")
	}
	if a.Equivalent(c, v) {
		t.Error("different cardinalities cannot be equivalent")
	}
	if a.Equivalent(d, v) {
		t.Error("address ≈ referral is false")
	}
}

func TestCovers(t *testing.T) {
	v := sampleVocab()
	comp := MustRule(T("data", "clinical"), T("purpose", "treatment"), T("authorized", "nurse"))
	g1 := MustRule(T("data", "referral"), T("purpose", "treatment"), T("authorized", "nurse"))
	g2 := MustRule(T("data", "referral"), T("purpose", "registration"), T("authorized", "nurse"))
	if !comp.Covers(g1, v) {
		t.Error("clinical/treatment/nurse should cover referral/treatment/nurse")
	}
	if comp.Covers(g2, v) {
		t.Error("purpose mismatch must not be covered")
	}
	short := MustRule(T("data", "clinical"))
	if short.Covers(g1, v) {
		t.Error("cardinality mismatch must not be covered")
	}
}

func TestPolicyAddRemoveContains(t *testing.T) {
	p := New("PS")
	r1 := MustRule(T("data", "a"), T("purpose", "b"))
	r2 := MustRule(T("data", "c"), T("purpose", "d"))
	if !p.Add(r1) || !p.Add(r2) {
		t.Fatal("adds failed")
	}
	if p.Add(r1) {
		t.Error("duplicate add succeeded")
	}
	if p.Add(Rule{}) {
		t.Error("zero rule accepted")
	}
	if p.Len() != 2 || !p.Contains(r1) {
		t.Errorf("unexpected state: %v", p)
	}
	if !p.Remove(r1) || p.Contains(r1) || p.Len() != 1 {
		t.Error("remove failed")
	}
	if p.Remove(r1) {
		t.Error("second remove succeeded")
	}
}

func TestPolicyCloneIndependence(t *testing.T) {
	p := FromRules("PS", MustRule(T("a", "b")))
	c := p.Clone()
	c.Add(MustRule(T("c", "d")))
	if p.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: p=%d c=%d", p.Len(), c.Len())
	}
}

func TestPolicyIsGround(t *testing.T) {
	v := sampleVocab()
	g := FromRules("AL", MustRule(T("data", "address")))
	if !g.IsGround(v) {
		t.Error("ground policy misclassified")
	}
	comp := FromRules("PS", MustRule(T("data", "demographic")))
	if comp.IsGround(v) {
		t.Error("composite policy misclassified")
	}
}

// Property (quick): rule construction is permutation-invariant — any
// ordering of the same terms yields the same canonical key — and
// normalization is idempotent.
func TestRuleNormalizationProperties(t *testing.T) {
	attrs := []string{"data", "purpose", "authorized", "op", "site"}
	f := func(perm uint8, n uint8, seed uint8) bool {
		count := int(n%4) + 2
		terms := make([]Term, count)
		for i := range terms {
			terms[i] = T(attrs[i%len(attrs)], string(rune('a'+(int(seed)+i)%6)))
		}
		r1, err := NewRule(terms...)
		if err != nil {
			return false
		}
		// Rotate and swap to get a different ordering.
		rot := int(perm) % count
		shuffled := append(append([]Term{}, terms[rot:]...), terms[:rot]...)
		r2, err := NewRule(shuffled...)
		if err != nil {
			return false
		}
		if r1.Key() != r2.Key() {
			return false
		}
		// Rebuilding from the normalized terms changes nothing.
		r3, err := NewRule(r1.Terms()...)
		if err != nil {
			return false
		}
		return r3.Key() == r1.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (quick): Compact/ParseRule round-trips any rule built from
// identifier-safe terms.
func TestCompactRoundTripProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		r := MustRule(
			T("data", fmt.Sprintf("d%d", a%16)),
			T("purpose", fmt.Sprintf("p%d", b%16)),
			T("authorized", fmt.Sprintf("r%d", c%16)),
		)
		back, err := ParseRule(r.Compact())
		return err == nil && back.Key() == r.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Project returns a new rule containing only the terms whose
// attributes appear in attrs. It returns the zero Rule if none match.
func (r Rule) Project(attrs ...string) Rule {
	keep := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		keep[vocab.Norm(a)] = true
	}
	var terms []Term
	var keys []string
	for _, t := range r.terms {
		if keep[vocab.Norm(t.Attr)] {
			terms = append(terms, t)
			keys = append(keys, t.Key())
		}
	}
	return Rule{terms: terms, key: strings.Join(keys, "&")}
}

// Covers reports whether r subsumes ground rule g: same attributes,
// and each of r's values subsumes g's value in the vocabulary. This is
// the practical containment test used to explain coverage gaps.
func (r Rule) Covers(g Rule, v *vocab.Vocabulary) bool {
	if r.Len() != g.Len() {
		return false
	}
	for _, t := range r.terms {
		gv, ok := g.Value(t.Attr)
		if !ok || !v.Subsumes(t.Attr, t.Value, gv) {
			return false
		}
	}
	return true
}
