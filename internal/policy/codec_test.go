package policy

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("data=referral & purpose=treatment & authorized=nurse")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if v, _ := r.Value("data"); v != "referral" {
		t.Errorf("data = %q", v)
	}
	// Comma separator and spacing variants.
	r2, err := ParseRule("purpose = treatment,data=referral,authorized=nurse")
	if err != nil {
		t.Fatal(err)
	}
	if r.Key() != r2.Key() {
		t.Errorf("separator variants differ: %q vs %q", r.Key(), r2.Key())
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "noequals", "a=1 & broken"} {
		if _, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q): want error", in)
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	r := MustRule(T("data", "insurance"), T("purpose", "billing"), T("authorized", "nurse"))
	back, err := ParseRule(r.Compact())
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != r.Key() {
		t.Errorf("round trip changed rule: %q vs %q", back.Key(), r.Key())
	}
}

func TestParsePolicy(t *testing.T) {
	src := `
# the ideal workflow
data=clinical & purpose=treatment & authorized=nurse
data=psychiatry & purpose=treatment & authorized=psychiatrist

data=demographic & purpose=billing & authorized=clerk
data=clinical & purpose=treatment & authorized=nurse
`
	p, err := ParsePolicyString("PS", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 { // duplicate collapsed
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if p.Name != "PS" {
		t.Errorf("Name = %q", p.Name)
	}
}

func TestParsePolicyError(t *testing.T) {
	if _, err := ParsePolicyString("PS", "good=rule\nbad rule\n"); err == nil {
		t.Error("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not locate the line: %v", err)
	}
	// A '#'-leading attribute cannot round-trip: sorted terms may put
	// it at the start of the line, where re-parse reads a comment
	// (found by FuzzDecodePolicy; the corpus entry pins it too).
	if _, err := ParseRule("z=1 & #a=2"); err == nil {
		t.Error("'#'-leading attribute accepted")
	}
}

func TestPolicyTextRoundTrip(t *testing.T) {
	p := FromRules("PS",
		MustRule(T("data", "clinical"), T("purpose", "treatment"), T("authorized", "nurse")),
		MustRule(T("data", "demographic"), T("purpose", "billing"), T("authorized", "clerk")),
	)
	back, err := ParsePolicyString(p.Name, p.TextString())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != p.Len() {
		t.Fatalf("round trip changed rule count")
	}
	for _, r := range p.Rules() {
		if !back.Contains(r) {
			t.Errorf("round trip lost %v", r)
		}
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	p := FromRules("AL",
		MustRule(T("data", "referral"), T("purpose", "registration"), T("authorized", "nurse")),
	)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Policy
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "AL" || back.Len() != 1 || !back.Contains(p.Rules()[0]) {
		t.Errorf("JSON round trip mismatch: %v", &back)
	}
}

func TestRuleJSONNormalizes(t *testing.T) {
	var r Rule
	src := `[{"attr":"purpose","value":"billing"},{"attr":"data","value":"insurance"}]`
	if err := json.Unmarshal([]byte(src), &r); err != nil {
		t.Fatal(err)
	}
	if r.Terms()[0].Attr != "data" {
		t.Errorf("rule not normalized after JSON decode: %v", r)
	}
	if err := json.Unmarshal([]byte(`[]`), &r); err == nil {
		t.Error("empty rule accepted via JSON")
	}
	if err := json.Unmarshal([]byte(`"x"`), &r); err == nil {
		t.Error("bad JSON shape accepted")
	}
}

// ParsePolicyString is ParsePolicy over a string.
func ParsePolicyString(name, s string) (*Policy, error) {
	return ParsePolicy(name, strings.NewReader(s))
}

// TextString renders the policy in text form.
func (p *Policy) TextString() string {
	var b strings.Builder
	if err := p.WriteText(&b); err != nil {
		// strings.Builder writes cannot fail.
		panic("policy: TextString: " + err.Error())
	}
	return b.String()
}
