package vocab

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Vocabulary {
	t.Helper()
	return Sample()
}

func TestNorm(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Referral", "referral"},
		{"  Nurse ", "nurse"},
		{"", ""},
		{"LAB_RESULT", "lab_result"},
	}
	for _, c := range cases {
		if got := Norm(c.in); got != c.want {
			t.Errorf("Norm(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAddAndLookup(t *testing.T) {
	v := New()
	h, err := v.AddAttribute("data")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Add("", "demographic"); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("demographic", "address"); err != nil {
		t.Fatal(err)
	}
	if !h.Contains("Address") {
		t.Error("case-insensitive lookup failed")
	}
	if h.Node("address").Parent().Value() != "demographic" {
		t.Error("wrong parent")
	}
	if got := v.Hierarchy("DATA"); got != h {
		t.Error("attribute lookup not case-insensitive")
	}
}

func TestAddErrors(t *testing.T) {
	v := New()
	if _, err := v.AddAttribute(""); err == nil {
		t.Error("empty attribute accepted")
	}
	h, _ := v.AddAttribute("data")
	if _, err := v.AddAttribute("Data"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if err := h.Add("", ""); err == nil {
		t.Error("empty value accepted")
	}
	if err := h.Add("nosuch", "x"); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := h.Add("", "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.Add("", "A"); err == nil {
		t.Error("duplicate value accepted")
	}
}

func TestIsGround(t *testing.T) {
	v := sample(t)
	cases := []struct {
		attr, value string
		want        bool
	}{
		{"data", "gender", true},       // paper: RT3 is ground
		{"data", "demographic", false}, // paper: RT1 is composite
		{"data", "address", true},
		{"data", "phi", false},
		{"data", "unknown-thing", true}, // unknown values are atomic
		{"nosuchattr", "x", true},
		{"purpose", "treatment", true},
		{"purpose", "healthcare", false},
	}
	for _, c := range cases {
		if got := v.IsGround(c.attr, c.value); got != c.want {
			t.Errorf("IsGround(%s,%s) = %v, want %v", c.attr, c.value, got, c.want)
		}
	}
}

func TestGroundSetDemographicHasFourElements(t *testing.T) {
	// §3.1: "the set RT'_1 for RT_1 is shown to comprise of four
	// ground RuleTerms".
	v := sample(t)
	got := v.GroundSet("data", "demographic")
	if len(got) != 4 {
		t.Fatalf("GroundSet(data, demographic) = %v, want 4 elements", got)
	}
	want := []string{"address", "birthdate", "gender", "phone"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroundSet = %v, want %v", got, want)
	}
}

func TestGroundSet(t *testing.T) {
	v := sample(t)
	if got := v.GroundSet("data", "gender"); !reflect.DeepEqual(got, []string{"gender"}) {
		t.Errorf("ground value's ground set = %v", got)
	}
	if got := v.GroundSet("data", "mystery"); !reflect.DeepEqual(got, []string{"mystery"}) {
		t.Errorf("unknown value's ground set = %v", got)
	}
	clinical := v.GroundSet("data", "clinical")
	want := []string{"counseling", "lab_result", "prescription", "psychiatry", "referral"}
	if !reflect.DeepEqual(clinical, want) {
		t.Errorf("GroundSet(clinical) = %v, want %v", clinical, want)
	}
	general := v.GroundSet("data", "general")
	wantGeneral := []string{"lab_result", "prescription", "referral"}
	if !reflect.DeepEqual(general, wantGeneral) {
		t.Errorf("GroundSet(general) = %v, want %v", general, wantGeneral)
	}
	phi := v.GroundSet("data", "phi")
	if len(phi) != 11 {
		t.Errorf("GroundSet(phi) has %d elements, want 11: %v", len(phi), phi)
	}
}

func TestSubsumes(t *testing.T) {
	v := sample(t)
	cases := []struct {
		a, b string
		want bool
	}{
		{"demographic", "address", true},
		{"demographic", "gender", true},
		{"phi", "address", true},
		{"address", "demographic", false},
		{"demographic", "referral", false},
		{"gender", "gender", true},
		{"unknown", "unknown", true},
		{"unknown", "gender", false},
	}
	for _, c := range cases {
		if got := v.Subsumes("data", c.a, c.b); got != c.want {
			t.Errorf("Subsumes(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEquivalentDefinition4(t *testing.T) {
	// §3.1: both RT2 (address) and RT3 (gender) are equivalent to RT1
	// (demographic).
	v := sample(t)
	if !v.Equivalent("data", "address", "demographic") {
		t.Error("address ≉ demographic")
	}
	if !v.Equivalent("data", "demographic", "gender") {
		t.Error("demographic ≉ gender")
	}
	if v.Equivalent("data", "address", "gender") {
		t.Error("address ≈ gender (two distinct ground values)")
	}
	if !v.Equivalent("data", "clinical", "phi") {
		t.Error("clinical ≉ phi (overlapping composites)")
	}
	if v.Equivalent("data", "demographic", "clinical") {
		t.Error("demographic ≈ clinical (disjoint composites)")
	}
	// Unknown attribute: plain string equality.
	if !v.Equivalent("zzz", "A", "a") {
		t.Error("unknown attr should compare normalized values")
	}
}

func TestAncestorsDepthLeaves(t *testing.T) {
	v := sample(t)
	h := v.Hierarchy("data")
	anc := h.Ancestors("address")
	if !reflect.DeepEqual(anc, []string{"demographic", "phi"}) {
		t.Errorf("Ancestors(address) = %v", anc)
	}
	if d := h.Depth("address"); d != 3 {
		t.Errorf("Depth(address) = %d, want 3", d)
	}
	if d := h.Depth("phi"); d != 1 {
		t.Errorf("Depth(phi) = %d, want 1", d)
	}
	if d := h.Depth("nosuch"); d != 0 {
		t.Errorf("Depth(nosuch) = %d, want 0", d)
	}
	leaves := h.Leaves()
	if len(leaves) != 11 {
		t.Errorf("Leaves() = %v, want 11 entries", leaves)
	}
	if !sort.StringsAreSorted(leaves) {
		t.Error("leaves not sorted")
	}
}

func TestAttributesOrder(t *testing.T) {
	v := sample(t)
	want := []string{"data", "purpose", "authorized"}
	if got := v.Attributes(); !reflect.DeepEqual(got, want) {
		t.Errorf("Attributes() = %v, want %v", got, want)
	}
}

func TestSampleRolesAreGround(t *testing.T) {
	// Required for the paper's audit-row counting; see sample.go.
	v := sample(t)
	for _, role := range []string{"doctor", "psychiatrist", "nurse", "clerk"} {
		if !v.IsGround("authorized", role) {
			t.Errorf("role %q must be ground", role)
		}
	}
}

// Property: every element of a ground set is itself ground, and is
// subsumed by the value it was derived from (closure of Definition 3).
func TestGroundSetClosureProperty(t *testing.T) {
	v := sample(t)
	for _, attr := range v.Attributes() {
		h := v.Hierarchy(attr)
		for _, val := range h.Values() {
			for _, g := range h.GroundSet(val) {
				if !h.IsGround(g) {
					t.Errorf("%s/%s: ground set element %q not ground", attr, val, g)
				}
				if !h.Subsumes(val, g) {
					t.Errorf("%s/%s does not subsume ground element %q", attr, val, g)
				}
				if !v.Equivalent(attr, val, g) {
					t.Errorf("%s/%s not equivalent to its ground element %q", attr, val, g)
				}
			}
		}
	}
}

// Property: Equivalent is reflexive and symmetric over vocabulary values.
func TestEquivalenceProperties(t *testing.T) {
	v := sample(t)
	h := v.Hierarchy("data")
	vals := h.Values()
	for _, a := range vals {
		if !v.Equivalent("data", a, a) {
			t.Errorf("equivalence not reflexive for %q", a)
		}
		for _, b := range vals {
			if v.Equivalent("data", a, b) != v.Equivalent("data", b, a) {
				t.Errorf("equivalence not symmetric for %q,%q", a, b)
			}
		}
	}
}

// Property (quick): for randomly generated chains, GroundSet of the
// root covers all leaves.
func TestRandomChainsProperty(t *testing.T) {
	f := func(depth uint8, fanout uint8) bool {
		d := int(depth%5) + 1
		fo := int(fanout%3) + 1
		v := New()
		h := v.MustAttribute("a")
		h.MustAdd("", "root")
		frontier := []string{"root"}
		name := 0
		for lvl := 0; lvl < d; lvl++ {
			var next []string
			for _, p := range frontier {
				for i := 0; i < fo; i++ {
					name++
					val := "n" + itoa(name)
					h.MustAdd(p, val)
					next = append(next, val)
				}
			}
			frontier = next
		}
		gs := h.GroundSet("root")
		return len(gs) == len(frontier)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Ancestors returns the chain of ancestors of value from its parent up
// to its top-level value. Unknown or top-level values yield nil.
func (h *Hierarchy) Ancestors(value string) []string {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	n := h.nodes[Norm(value)]
	if n == nil {
		return nil
	}
	var out []string
	for p := n.parent; p != nil; p = p.parent {
		out = append(out, p.value)
	}
	return out
}
