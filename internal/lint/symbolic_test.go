package lint

import (
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// TestSymbolicMatchesMaterialized: the symbolic pass and the
// materializing oracle emit byte-identical reports on every fixture
// rule set the oracle can handle.
func TestSymbolicMatchesMaterialized(t *testing.T) {
	v := fixtureVocab(t)
	sample := vocab.Sample()
	cases := []struct {
		name  string
		v     *vocab.Vocabulary
		rules []policy.Rule
	}{
		{"clean", v, cleanRules(t)},
		{"unknown-attr", v, append(cleanRules(t), rule(t, "consent=given"))},
		{"unknown-value", v, append(cleanRules(t), rule(t, "data=xray & purpose=treatment & authorized=nurse"))},
		{"zero", v, append([]policy.Rule{{}}, cleanRules(t)...)},
		{"duplicate", v, append(cleanRules(t), rule(t, "data=clinical & purpose=treatment & authorized=nurse"))},
		{"subsumed", v, append(cleanRules(t), rule(t, "data=lab_result & purpose=treatment & authorized=nurse"))},
		{"unreachable", v, cleanRules(t)[:1]},
		{"sample-mixed", sample, []policy.Rule{
			rule(t, "data=demographic & purpose=billing & authorized=clerk"),
			rule(t, "data=clinical & purpose=treatment & authorized=doctor"),
			rule(t, "data=referral & purpose=treatment & authorized=nurse"),
			rule(t, "data=financial & authorized=manager"),
			rule(t, "data=xray & purpose=treatment & authorized=doctor"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sym := RulesOpts("PS", tc.rules, tc.v, Options{})
			mat := materializedRules("PS", tc.rules, tc.v, Options{})
			if !reflect.DeepEqual(sym, mat) {
				t.Errorf("paths disagree:\nsymbolic:     %+v\nmaterialized: %+v", sym, mat)
			}
		})
	}
}

// TestConflictingRules: different attribute signatures overlapping on
// every shared attribute trigger PL007; disjoint projections or equal
// signatures do not.
func TestConflictingRules(t *testing.T) {
	v := vocab.Sample()
	rules := []policy.Rule{
		rule(t, "data=clinical & purpose=treatment & authorized=doctor"),
		rule(t, "data=general & authorized=medical_staff"), // overlaps rule 1 on data and authorized
	}
	rep := Rules("PS", rules, v)
	if got := rep.Counts()[ConflictingRules]; got != 1 {
		t.Fatalf("PL007 count = %d: %v", got, rep.Findings)
	}
	var f Finding
	for _, x := range rep.Findings {
		if x.Code == ConflictingRules {
			f = x
		}
	}
	if f.Rule != 2 {
		t.Errorf("PL007 should point at the later rule: %+v", f)
	}

	// Disjoint on a shared attribute: no conflict.
	disjoint := []policy.Rule{
		rule(t, "data=clinical & purpose=treatment & authorized=doctor"),
		rule(t, "data=financial & authorized=medical_staff"),
	}
	if n := Rules("PS", disjoint, v).Counts()[ConflictingRules]; n != 0 {
		t.Errorf("disjoint projections flagged: %d", n)
	}

	// No shared attribute at all: no conflict.
	unrelated := []policy.Rule{
		rule(t, "data=clinical"),
		rule(t, "purpose=treatment"),
	}
	if n := Rules("PS", unrelated, v).Counts()[ConflictingRules]; n != 0 {
		t.Errorf("attribute-disjoint rules flagged: %d", n)
	}

	// Same signature: redundancy territory (PL004/PL005), never PL007.
	same := []policy.Rule{
		rule(t, "data=clinical & purpose=treatment"),
		rule(t, "data=general & purpose=healthcare"),
	}
	if n := Rules("PS", same, v).Counts()[ConflictingRules]; n != 0 {
		t.Errorf("same-signature rules flagged: %d", n)
	}
}

// TestOverBroadRule: a term reaching more than the configured fraction
// of its attribute's ground space triggers PL008.
func TestOverBroadRule(t *testing.T) {
	v := vocab.Sample()
	rules := []policy.Rule{
		rule(t, "data=phi & purpose=treatment & authorized=nurse"), // phi = 10/10 leaves
	}
	rep := Rules("PS", rules, v)
	if got := rep.Counts()[OverBroadRule]; got != 1 {
		t.Fatalf("PL008 count = %d: %v", got, rep.Findings)
	}
	var f Finding
	for _, x := range rep.Findings {
		if x.Code == OverBroadRule {
			f = x
		}
	}
	if f.Rule != 1 || f.Attr != "data" || f.Value != "phi" {
		t.Errorf("PL008 finding: %+v", f)
	}

	// Tighter threshold pulls in clinical (5/10 > 0.4).
	rep = RulesOpts("PS", []policy.Rule{
		rule(t, "data=clinical & purpose=treatment & authorized=nurse"),
	}, v, Options{OverBroadFraction: 0.4})
	if got := rep.Counts()[OverBroadRule]; got != 1 {
		t.Errorf("PL008 at 0.4 = %d: %v", got, rep.Findings)
	}

	// Negative fraction disables the rule.
	rep = RulesOpts("PS", rules, v, Options{OverBroadFraction: -1})
	if got := rep.Counts()[OverBroadRule]; got != 0 {
		t.Errorf("PL008 disabled still fired: %d", got)
	}

	// Ground terms are never over-broad, even in a tiny hierarchy.
	rep = RulesOpts("PS", []policy.Rule{
		rule(t, "purpose=research"),
	}, v, Options{OverBroadFraction: 0.1})
	if got := rep.Counts()[OverBroadRule]; got != 0 {
		t.Errorf("single-leaf term flagged: %d", got)
	}
}

// TestLint100k: the symbolic pass completes on a 100k-leaf vocabulary
// — a workload on which a single composite rule's ground Range is far
// beyond the materializing limit.
func TestLint100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k vocabulary build in -short mode")
	}
	v := vocab.Synthetic(10, 5)
	rules := []policy.Rule{
		rule(t, "data=n1 & purpose=treatment & authorized=nurse"),   // 10k leaves
		rule(t, "data=n11 & purpose=treatment & authorized=nurse"),  // inside n1: subsumed
		rule(t, "data=n2 & purpose=healthcare & authorized=doctor"), // 10k leaves
		rule(t, "data=n0 & purpose=billing & authorized=clerk"),     // whole space: over-broad
	}
	rep := Rules("PS", rules, v)
	counts := rep.Counts()
	if counts[SubsumedRule] != 1 {
		t.Errorf("PL005 = %d: want 1", counts[SubsumedRule])
	}
	if counts[OverBroadRule] != 1 {
		t.Errorf("PL008 = %d: want 1", counts[OverBroadRule])
	}
	// n3..n10 (depth-1 subtrees with 10k leaves each) are unreachable.
	if counts[UnreachableSubtree] == 0 {
		t.Errorf("PL006 = 0 on a mostly-dead vocabulary")
	}
}
