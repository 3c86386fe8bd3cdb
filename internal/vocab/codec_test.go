package vocab

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sampleText = `
# privacy policy vocabulary
data
  demographic
    address
    gender
  clinical: prescription referral
purpose
  treatment
  billing
`

func TestParseText(t *testing.T) {
	v, err := ParseTextString(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Attributes(); !reflect.DeepEqual(got, []string{"data", "purpose"}) {
		t.Fatalf("attributes = %v", got)
	}
	if !v.Subsumes("data", "demographic", "gender") {
		t.Error("demographic should subsume gender")
	}
	if !v.Subsumes("data", "clinical", "referral") {
		t.Error("inline children not attached")
	}
	if got := v.GroundSet("data", "demographic"); !reflect.DeepEqual(got, []string{"address", "gender"}) {
		t.Errorf("GroundSet(demographic) = %v", got)
	}
	if !v.IsGround("purpose", "treatment") {
		t.Error("treatment should be ground")
	}
}

func TestParseTextInlineAtAttributeLevel(t *testing.T) {
	v, err := ParseTextString("status: regular exception\n")
	if err != nil {
		t.Fatal(err)
	}
	h := v.Hierarchy("status")
	if h == nil || h.Len() != 2 {
		t.Fatalf("inline attribute-level children not parsed: %+v", v)
	}
	if !h.IsGround("regular") {
		t.Error("regular should be a ground top-level value")
	}
}

func TestParseTextTabs(t *testing.T) {
	v, err := ParseTextString("data\n\tdemographic\n\t\taddress\n")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Subsumes("data", "demographic", "address") {
		t.Error("tab-indented hierarchy mis-parsed")
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"value before attribute", "  orphan\n"},
		{"odd indentation", "data\n demographic\n"},
		{"duplicate attribute", "data\ndata\n"},
		{"duplicate value", "data\n  a\n  a\n"},
		{"bare colon", "data\n  :\n"},
		{"jump indentation", "data\n      toofar\n"},
	}
	for _, c := range cases {
		if _, err := ParseTextString(c.in); err == nil {
			t.Errorf("%s: no error for %q", c.name, c.in)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	v := Sample()
	text := v.TextString()
	back, err := ParseTextString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if back.TextString() != text {
		t.Errorf("text round-trip not stable:\n--- first\n%s\n--- second\n%s", text, back.TextString())
	}
	if back.Size() != v.Size() {
		t.Errorf("size changed: %d -> %d", v.Size(), back.Size())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	v := Sample()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back Vocabulary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TextString() != v.TextString() {
		t.Error("JSON round-trip changed the vocabulary")
	}
	if !back.Subsumes("authorized", "medical_staff", "nurse") {
		t.Error("hierarchy lost through JSON")
	}
}

func TestJSONUnmarshalErrors(t *testing.T) {
	var v Vocabulary
	if err := json.Unmarshal([]byte(`{"not":"a list"}`), &v); err == nil {
		t.Error("bad shape accepted")
	}
	if err := json.Unmarshal([]byte(`[{"attr":"a","values":[{"value":"x"},{"value":"x"}]}]`), &v); err == nil {
		t.Error("duplicate value accepted")
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	a := Sample().TextString()
	b := Sample().TextString()
	if a != b {
		t.Error("TextString not deterministic")
	}
	if !strings.Contains(a, "demographic") {
		t.Error("output missing expected value")
	}
}

// ParseTextString is ParseText over a string.
func ParseTextString(s string) (*Vocabulary, error) {
	return ParseText(strings.NewReader(s))
}

// Size returns the total number of values across all hierarchies.
func (v *Vocabulary) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	n := 0
	for _, h := range v.attrs {
		n += len(h.nodes)
	}
	return n
}
