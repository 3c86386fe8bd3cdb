package treerec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/vocab"
)

const sampleXML = `
<record id="r1">
  <patient>p2</patient>
  <demographics>
    <address>2 Oak Ave</address>
    <gender>f</gender>
  </demographics>
  <clinical>
    <prescription>statins</prescription>
    <psychiatry>
      <note>anxiety</note>
    </psychiatry>
  </clinical>
</record>`

func mapping(t *testing.T) *Mapping {
	t.Helper()
	m := NewMapping(vocab.Sample())
	for pat, cat := range map[string]string{
		"demographics/address":  "address",
		"demographics/gender":   "gender",
		"clinical/prescription": "prescription",
		"clinical/psychiatry":   "psychiatry",
	} {
		if err := m.Add(pat, cat); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestParseXML(t *testing.T) {
	rec, err := ParseXMLString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "record" {
		t.Fatalf("root = %q", rec.Name)
	}
	if got := rec.Find("record/patient"); got == nil || got.Value != "p2" {
		t.Errorf("patient = %v", got)
	}
	if got := rec.Find("/record/@id"); got == nil || got.Value != "r1" {
		t.Errorf("attribute = %v", got)
	}
	if got := rec.Find("record/clinical/psychiatry/note"); got == nil || got.Value != "anxiety" {
		t.Errorf("nested = %v", got)
	}
	if rec.Find("record/nosuch") != nil {
		t.Error("Find invented a node")
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"<a><b></a>",
		"<a></a><b></b>",
		"plain text",
	} {
		if _, err := ParseXMLString(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestCategoryMatching(t *testing.T) {
	m := mapping(t)
	if cat, ok := m.Category("/record/demographics/address"); !ok || cat != "address" {
		t.Errorf("address: %q %v", cat, ok)
	}
	if _, ok := m.Category("/record/patient"); ok {
		t.Error("unmapped path matched")
	}
	// Wildcard and specificity.
	m2 := NewMapping(vocab.Sample())
	if err := m2.Add("clinical/*", "clinical"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Add("clinical/psychiatry", "psychiatry"); err != nil {
		t.Fatal(err)
	}
	if cat, _ := m2.Category("/record/clinical/prescription"); cat != "clinical" {
		t.Errorf("wildcard: %q", cat)
	}
	if cat, _ := m2.Category("/record/clinical/psychiatry"); cat != "psychiatry" {
		t.Errorf("specific over wildcard: %q", cat)
	}
}

func TestMappingValidation(t *testing.T) {
	m := NewMapping(vocab.Sample())
	if err := m.Add("", "address"); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := m.Add("a/b", "not-a-category"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestClassify(t *testing.T) {
	rec, err := ParseXMLString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	got := mapping(t).Classify(rec)
	want := []string{"address", "gender", "prescription", "psychiatry"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Classify = %v, want %v", got, want)
	}
}

func TestRedact(t *testing.T) {
	rec, err := ParseXMLString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	m := mapping(t)
	// A nurse treating the patient: general clinical visible,
	// psychiatry and demographics redacted (Figure 3 policy).
	allowed := map[string]bool{"prescription": true}
	red := m.Redact(rec, func(cat string) bool { return allowed[cat] })

	if red.Record.Find("record/clinical/prescription") == nil {
		t.Error("allowed subtree removed")
	}
	if red.Record.Find("record/clinical/psychiatry") != nil {
		t.Error("denied subtree kept")
	}
	if red.Record.Find("record/demographics/address") != nil {
		t.Error("denied demographic kept")
	}
	if red.Record.Find("record/patient") == nil {
		t.Error("unmapped identifier removed")
	}
	if len(red.Removed) != 3 {
		t.Errorf("Removed = %v", red.Removed)
	}
	if !reflect.DeepEqual(red.Kept, []string{"prescription"}) {
		t.Errorf("Kept = %v", red.Kept)
	}
	// The original record is untouched.
	if rec.Find("record/clinical/psychiatry") == nil {
		t.Error("Redact mutated its input")
	}
}

func TestRedactRootDenied(t *testing.T) {
	m := NewMapping(vocab.Sample())
	if err := m.Add("record", "phi"); err != nil {
		t.Fatal(err)
	}
	rec, err := ParseXMLString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	red := m.Redact(rec, func(string) bool { return false })
	if len(red.Record.Children) != 0 {
		t.Errorf("denied root kept children: %+v", red.Record)
	}
	if len(red.Removed) != 1 {
		t.Errorf("Removed = %v", red.Removed)
	}
}

func TestCloneAndWalkIndependence(t *testing.T) {
	rec, err := ParseXMLString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	cp := rec.Clone()
	cp.Find("record/patient").Value = "mutated"
	if rec.Find("record/patient").Value != "p2" {
		t.Error("Clone shares nodes")
	}
	count := 0
	rec.Walk(func(string, *Node) { count++ })
	if count != 10 {
		t.Errorf("walked %d nodes, want 10", count)
	}
}

func TestWriteXMLRoundTripish(t *testing.T) {
	rec, err := ParseXMLString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rec.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<record>", "<address>2 Oak Ave</address>", "<note>anxiety</note>"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Output parses again.
	back, err := ParseXMLString(out)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if back.Find("record/clinical/psychiatry/note") == nil {
		t.Error("round trip lost structure")
	}
}

func TestXMLEscaping(t *testing.T) {
	n := &Node{Name: "v", Value: `a < b & "c"`}
	var b strings.Builder
	if err := n.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "a < b") {
		t.Errorf("unescaped output: %s", b.String())
	}
	back, err := ParseXMLString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Value != `a < b & "c"` {
		t.Errorf("escape round trip: %q", back.Value)
	}
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	out := &Node{Name: n.Name, Value: n.Value}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.Clone())
	}
	return out
}

// Find returns the first node at the given path, or nil.
func (n *Node) Find(path string) *Node {
	var found *Node
	n.Walk(func(p string, m *Node) {
		if found == nil && pathEqual(p, path) {
			found = m
		}
	})
	return found
}

func pathEqual(a, b string) bool {
	return strings.EqualFold(strings.Trim(a, "/"), strings.Trim(b, "/"))
}
