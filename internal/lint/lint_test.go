package lint

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// fixtureVocab builds a small vocabulary:
//
//	data:       clinical -> {lab_result, prescription}; referral
//	purpose:    treatment; billing
//	authorized: nurse; doctor
func fixtureVocab(t *testing.T) *vocab.Vocabulary {
	t.Helper()
	v := vocab.New()
	data := v.MustAttribute("data")
	data.MustAdd("", "clinical")
	data.MustAdd("clinical", "lab_result")
	data.MustAdd("clinical", "prescription")
	data.MustAdd("", "referral")
	purpose := v.MustAttribute("purpose")
	purpose.MustAdd("", "treatment")
	purpose.MustAdd("", "billing")
	auth := v.MustAttribute("authorized")
	auth.MustAdd("", "nurse")
	auth.MustAdd("", "doctor")
	return v
}

func rule(t *testing.T, s string) policy.Rule {
	t.Helper()
	r, err := policy.ParseRule(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cleanRules covers every vocabulary subtree with no overlap.
func cleanRules(t *testing.T) []policy.Rule {
	return []policy.Rule{
		rule(t, "data=clinical & purpose=treatment & authorized=nurse"),
		rule(t, "data=referral & purpose=billing & authorized=doctor"),
	}
}

func assertCounts(t *testing.T, rep Report, want map[string]int) {
	t.Helper()
	got := rep.Counts()
	for code, n := range want {
		if got[code] != n {
			t.Errorf("count[%s] = %d, want %d", code, got[code], n)
		}
	}
	for code, n := range got {
		if want[code] == 0 {
			t.Errorf("unexpected %d finding(s) with code %s: %v", n, code, rep.Findings)
		}
	}
}

func TestCleanPolicy(t *testing.T) {
	v := fixtureVocab(t)
	rep := Rules("PS", cleanRules(t), v)
	if !rep.Clean() {
		t.Fatalf("clean policy produced findings: %v", rep.Findings)
	}
	if rep.Rules != 2 || rep.Policy != "PS" {
		t.Errorf("report header: %+v", rep)
	}
}

func TestUnknownAttribute(t *testing.T) {
	v := fixtureVocab(t)
	rules := append(cleanRules(t), rule(t, "consent=given"))
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{UnknownAttribute: 1})
	f := rep.Findings[0]
	if f.Code != UnknownAttribute || f.Rule != 3 || f.Attr != "consent" {
		t.Errorf("finding: %+v", f)
	}
}

func TestUnknownValue(t *testing.T) {
	v := fixtureVocab(t)
	rules := append(cleanRules(t), rule(t, "data=xray & purpose=treatment & authorized=nurse"))
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{UnknownValue: 1})
	f := rep.Findings[0]
	if f.Code != UnknownValue || f.Rule != 3 || f.Attr != "data" || f.Value != "xray" {
		t.Errorf("finding: %+v", f)
	}
}

func TestEmptyRange(t *testing.T) {
	v := fixtureVocab(t)
	rules := append([]policy.Rule{{}}, cleanRules(t)...)
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{EmptyRange: 1})
	if f := rep.Findings[0]; f.Rule != 1 {
		t.Errorf("zero rule not attributed to rule 1: %+v", f)
	}
}

func TestDuplicateRule(t *testing.T) {
	v := fixtureVocab(t)
	dup := rule(t, "data=clinical & purpose=treatment & authorized=nurse")
	rules := append(cleanRules(t), dup)
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{DuplicateRule: 1})
	f := rep.Findings[0]
	if f.Code != DuplicateRule || f.Rule != 3 {
		t.Errorf("finding: %+v", f)
	}
	if !strings.Contains(f.Message, "rule 1") {
		t.Errorf("duplicate should name the earlier rule: %s", f.Message)
	}
}

func TestSubsumedRule(t *testing.T) {
	v := fixtureVocab(t)
	// Rule 3's Range (the single ground rule with lab_result) is a
	// strict subset of rule 1's (clinical expands to both leaves).
	rules := append(cleanRules(t), rule(t, "data=lab_result & purpose=treatment & authorized=nurse"))
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{SubsumedRule: 1})
	f := rep.Findings[0]
	if f.Code != SubsumedRule || f.Rule != 3 {
		t.Errorf("finding: %+v", f)
	}
	if !strings.Contains(f.Message, "Definition 8") {
		t.Errorf("message should cite Definition 8: %s", f.Message)
	}
}

// TestSubsumedEarlierRule pins the symmetric case: the broader rule
// appearing later still marks the earlier narrow rule as subsumed.
func TestSubsumedEarlierRule(t *testing.T) {
	v := fixtureVocab(t)
	rules := []policy.Rule{
		rule(t, "data=lab_result & purpose=treatment & authorized=nurse"),
		rule(t, "data=clinical & purpose=treatment & authorized=nurse"),
		rule(t, "data=referral & purpose=billing & authorized=doctor"),
	}
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{SubsumedRule: 1})
	if f := rep.Findings[0]; f.Rule != 1 {
		t.Errorf("expected rule 1 subsumed: %+v", f)
	}
}

func TestUnreachableSubtree(t *testing.T) {
	v := fixtureVocab(t)
	// Only rule 1 remains: referral (data), billing (purpose) and
	// doctor (authorized) become unreachable subtrees. Vocabulary-level
	// findings sort by (attribute, value), not registration order.
	rep := Rules("PS", cleanRules(t)[:1], v)
	assertCounts(t, rep, map[string]int{UnreachableSubtree: 3})
	var values []string
	for _, f := range rep.Findings {
		if f.Attr == "" {
			t.Errorf("vocabulary finding missing Attr: %+v", f)
		}
		values = append(values, f.Value)
	}
	got := strings.Join(values, ",")
	if got != "doctor,referral,billing" {
		t.Errorf("unreachable subtrees = %q", got)
	}
}

func TestUnreferencedAttribute(t *testing.T) {
	v := fixtureVocab(t)
	rules := []policy.Rule{
		rule(t, "data=clinical & purpose=treatment"),
		rule(t, "data=referral & purpose=billing"),
	}
	rep := Rules("PS", rules, v)
	assertCounts(t, rep, map[string]int{UnreachableSubtree: 1})
	f := rep.Findings[0]
	if f.Attr != "authorized" || f.Value != "" {
		t.Errorf("finding: %+v", f)
	}
	if !strings.Contains(f.Message, "no rule constrains") {
		t.Errorf("message: %s", f.Message)
	}
}

// TestMaximalSubtreeOnly: when a whole subtree is dead, only its root
// is reported, not every descendant.
func TestMaximalSubtreeOnly(t *testing.T) {
	v := fixtureVocab(t)
	rules := []policy.Rule{
		rule(t, "data=referral & purpose=treatment & authorized=nurse"),
		rule(t, "data=referral & purpose=billing & authorized=doctor"),
	}
	rep := Rules("PS", rules, v)
	// clinical (with two children) is dead: exactly one finding.
	assertCounts(t, rep, map[string]int{UnreachableSubtree: 1})
	if f := rep.Findings[0]; f.Value != "clinical" {
		t.Errorf("expected the subtree root, got %+v", f)
	}
}

func TestPolicyEntryPoint(t *testing.T) {
	v := fixtureVocab(t)
	p := policy.FromRules("store", cleanRules(t)...)
	rep := Policy(p, v)
	if !rep.Clean() || rep.Policy != "store" {
		t.Errorf("report: %+v", rep)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	v := fixtureVocab(t)
	rep := Rules("PS", append(cleanRules(t), rule(t, "consent=given")), v)

	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "PL001 rule 3:") {
		t.Errorf("text output: %s", text.String())
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Policy != rep.Policy || len(back.Findings) != len(rep.Findings) {
		t.Errorf("JSON round trip: %+v", back)
	}
	if back.Findings[0].Code != UnknownAttribute {
		t.Errorf("JSON finding: %+v", back.Findings[0])
	}
}

// Counts returns the number of findings per code.
func (r Report) Counts() map[string]int {
	out := make(map[string]int)
	for _, f := range r.Findings {
		out[f.Code]++
	}
	return out
}

// Rules lints a bare rule list against v with default options. Policy
// deduplicates on Add, so fixtures exercising PL003/PL004 need this
// entry point; primactl goes through Policy.
func Rules(name string, rules []policy.Rule, v *vocab.Vocabulary) Report {
	return RulesOpts(name, rules, v, Options{})
}
