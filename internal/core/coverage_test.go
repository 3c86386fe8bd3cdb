package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/vocab"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// TestFigure3Coverage reproduces the paper's §3.3 example exactly:
// invoking ComputeCoverage(P_PS, P_AL, V) yields 50 % (3/6).
func TestFigure3Coverage(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	al := scenario.Figure3AuditPolicy()
	got, err := ComputeCoverage(ps, al, v)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, scenario.Figure3Coverage) {
		t.Fatalf("Figure 3 coverage = %v, want %v", got, scenario.Figure3Coverage)
	}
}

// TestFigure3Gaps verifies the three §3.3 exception explanations:
// rule 3 fails on purpose, rule 4 on authorized, rule 6 on data.
func TestFigure3Gaps(t *testing.T) {
	v := scenario.Vocabulary()
	rep, err := Coverage(scenario.PolicyStore(), scenario.Figure3AuditPolicy(), v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlap != 3 || rep.RangeY != 6 || !almost(rep.Coverage, 0.5) {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Gaps) != 3 {
		t.Fatalf("gaps = %d, want 3", len(rep.Gaps))
	}
	wantFailingAttr := map[string]string{
		"authorized=nurse&data=referral&purpose=registration": "purpose",    // rule 3
		"authorized=nurse&data=psychiatry&purpose=treatment":  "authorized", // rule 4
		"authorized=clerk&data=prescription&purpose=billing":  "data",       // rule 6
	}
	for _, g := range rep.Gaps {
		attr, ok := wantFailingAttr[g.Rule.Key()]
		if !ok {
			t.Errorf("unexpected gap %s", g.Rule)
			continue
		}
		found := false
		for _, nm := range g.NearMisses {
			if vocab.Norm(nm.Attr) == attr {
				found = true
				if nm.String() == "" {
					t.Error("empty near-miss explanation")
				}
			}
		}
		if !found {
			t.Errorf("gap %s: no near miss on %q (got %v)", g.Rule, attr, g.NearMisses)
		}
	}
}

func TestCoverageSelfIsComplete(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	c, err := ComputeCoverage(ps, ps, v)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Errorf("Coverage(P,P) = %v, want 1", c)
	}
	complete, err := CompleteCoverage(ps, ps, v)
	if err != nil || !complete {
		t.Errorf("CompleteCoverage(P,P) = %v, %v", complete, err)
	}
}

func TestCoverageEmptyTarget(t *testing.T) {
	v := scenario.Vocabulary()
	empty := policy.New("empty")
	c, err := ComputeCoverage(scenario.PolicyStore(), empty, v)
	if err != nil || c != 1 {
		t.Errorf("coverage vs empty = %v, %v", c, err)
	}
	// And an empty policy covers nothing of a non-empty one.
	c, err = ComputeCoverage(empty, scenario.Figure3AuditPolicy(), v)
	if err != nil || c != 0 {
		t.Errorf("empty covers = %v, %v", c, err)
	}
}

func TestCoverageBounds(t *testing.T) {
	// Property: coverage is always within [0, 1].
	v := scenario.Vocabulary()
	pols := []*policy.Policy{
		scenario.PolicyStore(),
		scenario.Figure3AuditPolicy(),
		policy.New("empty"),
		policy.FromRules("one", policy.MustRule(policy.T("data", "phi"), policy.T("purpose", "healthcare"), policy.T("authorized", "medical_staff"))),
	}
	for _, px := range pols {
		for _, py := range pols {
			c, err := ComputeCoverage(px, py, v)
			if err != nil {
				t.Fatalf("%s vs %s: %v", px.Name, py.Name, err)
			}
			if c < 0 || c > 1 {
				t.Errorf("%s vs %s: coverage %v out of bounds", px.Name, py.Name, c)
			}
		}
	}
}

func TestCompositeCoverageViaRange(t *testing.T) {
	// A composite audit-side policy is covered iff all its ground
	// rules are.
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	composite := policy.FromRules("AL",
		policy.MustRule(policy.T("data", "general"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
	)
	c, err := ComputeCoverage(ps, composite, v)
	if err != nil || c != 1 {
		t.Errorf("composite covered: %v, %v", c, err)
	}
	wider := policy.FromRules("AL",
		policy.MustRule(policy.T("data", "clinical"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
	)
	// clinical has 5 leaves; only the 3 general ones are covered.
	c, err = ComputeCoverage(ps, wider, v)
	if err != nil || !almost(c, 3.0/5.0) {
		t.Errorf("wider coverage = %v, want 0.6 (%v)", c, err)
	}
}

// TestTable1EntryCoverage reproduces §5: coverage over the Table 1
// snapshot is 30 % (3/10).
func TestTable1EntryCoverage(t *testing.T) {
	v := scenario.Vocabulary()
	rep, err := EntryCoverage(scenario.PolicyStore(), scenario.Table1(), v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 10 || rep.Covered != 3 {
		t.Fatalf("covered %d/%d, want 3/10", rep.Covered, rep.Total)
	}
	if !almost(rep.Coverage, scenario.Table1Coverage) {
		t.Errorf("coverage = %v, want %v", rep.Coverage, scenario.Table1Coverage)
	}
	if len(rep.Uncovered) != 7 {
		t.Errorf("uncovered rows = %d, want 7", len(rep.Uncovered))
	}
	// The covered rows are exactly t1, t2, t5.
	uncoveredUsers := map[string]bool{}
	for _, e := range rep.Uncovered {
		uncoveredUsers[e.User] = true
	}
	for _, u := range []string{"John", "Bill"} {
		if uncoveredUsers[u] {
			t.Errorf("row of %s should be covered", u)
		}
	}
}

func TestEntryCoverageEmpty(t *testing.T) {
	v := scenario.Vocabulary()
	rep, err := EntryCoverage(scenario.PolicyStore(), nil, v)
	if err != nil || rep.Coverage != 1 || rep.Total != 0 {
		t.Errorf("empty snapshot: %+v, %v", rep, err)
	}
}

func TestNearMissExplanationText(t *testing.T) {
	v := scenario.Vocabulary()
	rep, err := Coverage(scenario.PolicyStore(), scenario.Figure3AuditPolicy(), v)
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, g := range rep.Gaps {
		for _, nm := range g.NearMisses {
			all = append(all, nm.String())
		}
	}
	text := strings.Join(all, "\n")
	// The §3.3 story: referral allowed only for treatment purpose.
	if !strings.Contains(text, "purpose=treatment") {
		t.Errorf("explanations missing the treatment-purpose near miss:\n%s", text)
	}
}

// Property (quick): coverage is monotone in the covering policy —
// adding rules to Px never lowers Coverage(Px, Py).
func TestCoverageMonotoneProperty(t *testing.T) {
	v := scenario.Vocabulary()
	al := scenario.Figure3AuditPolicy()
	dataVals := v.Hierarchy("data").Leaves()
	purposeVals := v.Hierarchy("purpose").Leaves()
	roleVals := v.Hierarchy("authorized").Leaves()
	f := func(d, p, r uint8, n uint8) bool {
		px := policy.New("PS")
		prev := 0.0
		for i := 0; i <= int(n%8); i++ {
			px.Add(policy.MustRule(
				policy.T("data", dataVals[(int(d)+i)%len(dataVals)]),
				policy.T("purpose", purposeVals[(int(p)+i*2)%len(purposeVals)]),
				policy.T("authorized", roleVals[(int(r)+i*3)%len(roleVals)]),
			))
			c, err := ComputeCoverage(px, al, v)
			if err != nil || c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// wideVocabulary has 1100 data leaves under "records" and 1000
// purpose leaves under "any", so the one rule {records, any, nurse}
// derives 1.1M ground rules, more than policy.DefaultRangeLimit.
func wideVocabulary() *vocab.Vocabulary {
	v := vocab.New()
	data := v.MustAttribute("data")
	data.MustAdd("", "records")
	for i := 0; i < 1100; i++ {
		data.MustAdd("records", fmt.Sprintf("d%d", i))
	}
	purpose := v.MustAttribute("purpose")
	purpose.MustAdd("", "any")
	for i := 0; i < 1000; i++ {
		purpose.MustAdd("any", fmt.Sprintf("p%d", i))
	}
	role := v.MustAttribute("authorized")
	role.MustAdd("", "staff")
	role.MustAdd("staff", "nurse")
	role.MustAdd("staff", "clerk")
	return v
}

// TestCoverageOfWideStore: Coverage lists only Range(Py); a covering
// store whose range exceeds the expansion limit is consulted
// symbolically and never materialized.
func TestCoverageOfWideStore(t *testing.T) {
	v := wideVocabulary()
	px := policy.FromRules("PS", policy.MustRule(
		policy.T("data", "records"), policy.T("purpose", "any"), policy.T("authorized", "nurse")))
	if n := policy.NewSymRange(px, v).Card(); n <= policy.DefaultRangeLimit {
		t.Fatalf("fixture: #Range(px) = %d, want above the expansion limit", n)
	}
	py := policy.FromRules("AL",
		policy.MustRule(policy.T("data", "d3"), policy.T("purpose", "p7"), policy.T("authorized", "nurse")),
		policy.MustRule(policy.T("data", "d3"), policy.T("purpose", "p7"), policy.T("authorized", "clerk")),
	)
	rep, err := Coverage(px, py, v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RangeX != 1100*1000 || rep.RangeY != 2 || rep.Overlap != 1 || !almost(rep.Coverage, 0.5) {
		t.Fatalf("report = RangeX %d RangeY %d Overlap %d Coverage %v", rep.RangeX, rep.RangeY, rep.Overlap, rep.Coverage)
	}
	if len(rep.Gaps) != 1 || len(rep.Gaps[0].NearMisses) != 1 || rep.Gaps[0].NearMisses[0].Attr != "authorized" {
		t.Fatalf("gaps = %+v", rep.Gaps)
	}
}
