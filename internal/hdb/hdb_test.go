package hdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/vocab"
)

var t0 = time.Date(2007, 3, 1, 8, 0, 0, 0, time.UTC)

// fixture builds a clinical records table under full enforcement.
func fixture(t *testing.T) (*Enforcer, *consent.Store, *audit.Log) {
	t.Helper()
	db := minidb.NewDatabase()
	db.MustExec(`CREATE TABLE records (
		patient TEXT, address TEXT, prescription TEXT, referral TEXT, psychiatry TEXT
	)`)
	db.MustExec(`INSERT INTO records VALUES
		('p1', '1 Elm St',  'aspirin',  'cardio',  'none'),
		('p2', '2 Oak Ave', 'statins',  'derm',    'anxiety'),
		('p3', '3 Pine Rd', 'insulin',  'endo',    'none')`)
	v := vocab.Sample()
	ps := scenario.PolicyStore()
	cs := consent.NewStore(v, true)
	log := audit.NewLog("clinic")
	enf := New(db, ps, v, cs, log)
	step := 0
	enf.SetClock(func() time.Time { step++; return t0.Add(time.Duration(step) * time.Second) })
	if err := enf.RegisterTable(TableMapping{
		Table:      "records",
		PatientCol: "patient",
		Categories: map[string]string{
			"address":      "address",
			"prescription": "prescription",
			"referral":     "referral",
			"psychiatry":   "psychiatry",
		},
	}); err != nil {
		t.Fatal(err)
	}
	return enf, cs, log
}

func nurse() Principal { return Principal{User: "tim", Role: "nurse"} }
func clerk() Principal { return Principal{User: "bill", Role: "clerk"} }

func TestAllowedQueryPassesAndIsAudited(t *testing.T) {
	enf, _, log := fixture(t)
	res, acc, err := enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(acc.Masked) != 0 || len(acc.Denied) != 0 {
		t.Errorf("access = %+v", acc)
	}
	entries := log.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("audit entries = %d", len(entries))
	}
	e := entries[0]
	if e.User != "tim" || e.Data != "referral" || e.Purpose != "treatment" ||
		e.Authorized != "nurse" || e.Op != audit.Allow || e.Status != audit.Regular {
		t.Errorf("audit entry = %+v", e)
	}
}

func TestDeniedOutputColumnIsMasked(t *testing.T) {
	enf, _, _ := fixture(t)
	// Nurses may read general clinical data for treatment but not
	// psychiatry: the psychiatry column comes back NULL.
	res, acc, err := enf.Query(nurse(), "treatment", `SELECT patient, referral, psychiatry FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Masked) != 1 || acc.Masked[0] != "psychiatry" {
		t.Fatalf("masked = %v", acc.Masked)
	}
	for _, row := range res.Rows {
		if !row[2].IsNull() {
			t.Errorf("psychiatry not masked: %v", row)
		}
		if row[1].IsNull() {
			t.Errorf("referral wrongly masked: %v", row)
		}
	}
	if res.Columns[2] != "psychiatry" {
		t.Errorf("masked column lost its name: %v", res.Columns)
	}
}

func TestFullyDeniedQueryFails(t *testing.T) {
	enf, _, log := fixture(t)
	// Clerk asking for psychiatry for billing: nothing permitted.
	_, _, err := enf.Query(clerk(), "billing", `SELECT psychiatry FROM records`)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	// The denial is audited as a prohibition (op = 0).
	entries := log.Snapshot()
	if len(entries) != 1 || entries[0].Op != audit.Deny || entries[0].Status != audit.Regular {
		t.Errorf("denial audit = %+v", entries)
	}
}

func TestDeniedCategoryInWhereRejects(t *testing.T) {
	enf, _, _ := fixture(t)
	// Filtering on a forbidden category would leak it even if it is
	// not in the output.
	_, acc, err := enf.Query(nurse(), "treatment",
		`SELECT patient, referral FROM records WHERE psychiatry = 'anxiety'`)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}
	if len(acc.Denied) != 1 || acc.Denied[0] != "psychiatry" {
		t.Errorf("denied = %v", acc.Denied)
	}
}

func TestBreakGlassBypassesAndAuditsException(t *testing.T) {
	enf, _, log := fixture(t)
	res, acc, err := enf.BreakGlass(nurse(), "treatment", "on-call psychiatrist unreachable",
		`SELECT patient, psychiatry FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || !acc.Exception {
		t.Fatalf("break-glass result: %d rows, %+v", len(res.Rows), acc)
	}
	for _, row := range res.Rows {
		if row[1].IsNull() {
			t.Error("break glass must not mask")
		}
	}
	entries := log.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.Status != audit.Exception || e.Op != audit.Allow || e.Reason == "" {
		t.Errorf("exception audit = %+v", e)
	}
	// Reason is mandatory.
	if _, _, err := enf.BreakGlass(nurse(), "treatment", "  ", `SELECT psychiatry FROM records`); err == nil {
		t.Error("break glass without reason accepted")
	}
}

func TestConsentFiltersRows(t *testing.T) {
	enf, cs, _ := fixture(t)
	// p2 opts out of all clinical uses.
	if err := cs.Set("p2", "clinical", "", consent.OptOut, t0); err != nil {
		t.Fatal(err)
	}
	res, acc, err := enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if acc.OptedOut != 1 || len(res.Rows) != 2 {
		t.Fatalf("optedOut=%d rows=%d", acc.OptedOut, len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].AsText() == "p2" {
			t.Error("opted-out patient returned")
		}
	}
	// An address query for billing by the clerk is unaffected: p2's
	// opt-out is scoped to clinical data.
	res, _, err = enf.Query(clerk(), "billing", `SELECT patient, address FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("billing rows = %d", len(res.Rows))
	}
	// Break glass overrides consent (emergency care).
	res, _, err = enf.BreakGlass(nurse(), "treatment", "emergency", `SELECT patient, referral FROM records`)
	if err != nil || len(res.Rows) != 3 {
		t.Errorf("break-glass consent override: %d rows, %v", len(res.Rows), err)
	}
}

// TestConsentExpiryFollowsClock checks that consent expiry is decided
// on the enforcer's clock, on the fast path and in the reference
// interpreter alike: an opt-out recorded at the clock's instant with a
// 30-day expiry filters the patient out, and once the clock passes the
// expiry the patient is returned again.
func TestConsentExpiryFollowsClock(t *testing.T) {
	enf, cs, _ := fixture(t)
	now := t0
	enf.SetClock(func() time.Time { return now })
	if err := cs.SetWithExpiry("p2", "clinical", "", consent.OptOut, now, now.Add(30*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT patient, referral FROM records`
	check := func(when string, wantP2 bool) {
		t.Helper()
		for path, query := range map[string]func(Principal, string, string) (*minidb.Result, *Access, error){
			"fast path": enf.Query, "reference": enf.referenceQuery,
		} {
			res, _, err := query(nurse(), "treatment", sql)
			if err != nil {
				t.Fatalf("%s, %s: %v", when, path, err)
			}
			got := false
			for _, row := range res.Rows {
				got = got || row[0].AsText() == "p2"
			}
			if got != wantP2 || len(res.Rows) != 2+btoi(wantP2) {
				t.Errorf("%s, %s: %d rows, p2 returned %v, want %v", when, path, len(res.Rows), got, wantP2)
			}
		}
	}
	check("within the opt-out", false)
	now = now.Add(31 * 24 * time.Hour)
	check("after the expiry", true)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestStarExpansionMasksPerColumn(t *testing.T) {
	enf, _, _ := fixture(t)
	res, acc, err := enf.Query(nurse(), "treatment", `SELECT * FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 {
		t.Fatalf("columns = %v", res.Columns)
	}
	// address (demographic, not allowed to nurse for treatment) and
	// psychiatry are masked; prescription and referral visible.
	want := map[string]bool{"address": true, "psychiatry": true}
	if len(acc.Masked) != len(want) {
		t.Fatalf("masked = %v", acc.Masked)
	}
	for _, mcol := range acc.Masked {
		if !want[mcol] {
			t.Errorf("unexpected mask %q", mcol)
		}
	}
}

func TestPolicyChangeTakesEffect(t *testing.T) {
	enf, _, _ := fixture(t)
	p := Principal{User: "mark", Role: "nurse"}
	_, acc, err := enf.Query(p, "registration", `SELECT referral FROM records`)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("pre-adoption: %v %v", acc, err)
	}
	// Adopt the §5 pattern: nurses may read referrals for
	// registration.
	enf.ps.Add(scenario.RefinementPattern())
	res, _, err := enf.Query(p, "registration", `SELECT referral FROM records`)
	if err != nil || len(res.Rows) != 3 {
		t.Errorf("post-adoption: %v rows, %v", len(res.Rows), err)
	}
}

func TestValidationErrors(t *testing.T) {
	enf, _, _ := fixture(t)
	if _, _, err := enf.Query(Principal{}, "treatment", `SELECT referral FROM records`); err == nil {
		t.Error("empty principal accepted")
	}
	if _, _, err := enf.Query(nurse(), "", `SELECT referral FROM records`); err == nil {
		t.Error("missing purpose accepted")
	}
	if _, _, err := enf.Query(nurse(), "treatment", `DELETE FROM records`); err == nil {
		t.Error("non-SELECT accepted")
	}
	if _, _, err := enf.Query(nurse(), "treatment", `SELECT nonsense FROM`); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, _, err := enf.Query(nurse(), "treatment", `SELECT x FROM unregistered`); err == nil {
		t.Error("unregistered table accepted")
	}
}

func TestRegisterTableValidation(t *testing.T) {
	enf, _, _ := fixture(t)
	if err := enf.RegisterTable(TableMapping{Table: "nosuch"}); err == nil {
		t.Error("missing table accepted")
	}
	if err := enf.RegisterTable(TableMapping{Table: "records", PatientCol: "nosuch"}); err == nil {
		t.Error("bad patient column accepted")
	}
	if err := enf.RegisterTable(TableMapping{
		Table: "records", Categories: map[string]string{"nosuch": "referral"},
	}); err == nil {
		t.Error("bad mapped column accepted")
	}
	if err := enf.RegisterTable(TableMapping{
		Table: "records", Categories: map[string]string{"referral": "not-a-category"},
	}); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestUncategorizedColumnsExempt(t *testing.T) {
	enf, _, _ := fixture(t)
	// patient is uncategorized: readable by anyone with a purpose.
	res, acc, err := enf.Query(clerk(), "billing", `SELECT patient FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(acc.Categories) != 0 {
		t.Errorf("rows=%d cats=%v", len(res.Rows), acc.Categories)
	}
}

func TestControlCenter(t *testing.T) {
	enf, cs, _ := fixture(t)
	cc := NewControlCenter(enf, cs)
	before := len(cc.Rules())
	r, err := cc.AddRule("data=lab_result & purpose=treatment & authorized=lab_tech")
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Rules()) != before+1 {
		t.Error("rule not added")
	}
	if _, err := cc.AddRule("data=nonsense & purpose=treatment & authorized=nurse"); err == nil {
		t.Error("out-of-vocabulary value accepted")
	}
	if _, err := cc.AddRule("zzz=1 & purpose=treatment"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := cc.AddRule("not a rule"); err == nil {
		t.Error("malformed rule accepted")
	}
	ok, err := cc.RemoveRule(r.Compact())
	if err != nil || !ok {
		t.Errorf("remove: %v %v", ok, err)
	}
	if ok, _ := cc.RemoveRule(r.Compact()); ok {
		t.Error("double remove succeeded")
	}
	if err := cc.SetConsent("p1", "psychiatry", "research", consent.OptOut, t0); err != nil {
		t.Error(err)
	}
	ccNoConsent := NewControlCenter(enf, nil)
	if err := ccNoConsent.SetConsent("p1", "a", "b", consent.OptOut, t0); err == nil {
		t.Error("consent without store accepted")
	}
}

func TestAuditEntriesPerCategory(t *testing.T) {
	enf, _, log := fixture(t)
	_, _, err := enf.BreakGlass(nurse(), "treatment", "why not",
		`SELECT address, prescription, psychiatry FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	entries := log.Snapshot()
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want one per category", len(entries))
	}
	cats := map[string]bool{}
	for _, e := range entries {
		cats[e.Data] = true
	}
	for _, want := range []string{"address", "prescription", "psychiatry"} {
		if !cats[want] {
			t.Errorf("missing audit for %s", want)
		}
	}
}

func TestEnforcerFeedsRefinementLoop(t *testing.T) {
	// Integration: repeated break-glass accesses produce an audit log
	// whose ToPolicy projection carries the informal practice.
	enf, _, log := fixture(t)
	for i, u := range []string{"mark", "tim", "bob", "mark", "tim"} {
		p := Principal{User: u, Role: "nurse"}
		_, _, err := enf.BreakGlass(p, "registration", "front desk backlog",
			`SELECT referral FROM records`)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	var exceptions []audit.Entry
	for _, e := range log.Snapshot() {
		if e.Status == audit.Exception {
			exceptions = append(exceptions, e)
		}
	}
	if len(exceptions) != 5 {
		t.Fatalf("exceptions = %d", len(exceptions))
	}
	al := audit.ToPolicy("AL", exceptions)
	if al.Len() != 1 {
		t.Fatalf("AL rules = %d", al.Len())
	}
	if al.Rules()[0].Key() != strings.ToLower("authorized=nurse&data=referral&purpose=registration") {
		t.Errorf("AL rule = %s", al.Rules()[0].Key())
	}
}

func TestDeniedCategoryInOrderByAndGroupByRejects(t *testing.T) {
	enf, _, _ := fixture(t)
	// Sorting or grouping by a forbidden category leaks its ordering
	// even when it is not projected.
	if _, _, err := enf.Query(nurse(), "treatment",
		`SELECT patient FROM records ORDER BY psychiatry`); !errors.Is(err, ErrDenied) {
		t.Errorf("ORDER BY leak: %v", err)
	}
	if _, _, err := enf.Query(nurse(), "treatment",
		`SELECT COUNT(*) FROM records GROUP BY psychiatry`); !errors.Is(err, ErrDenied) {
		t.Errorf("GROUP BY leak: %v", err)
	}
	if _, _, err := enf.Query(nurse(), "treatment",
		`SELECT COUNT(*) FROM records HAVING MIN(psychiatry) = 'none'`); !errors.Is(err, ErrDenied) {
		t.Errorf("HAVING leak: %v", err)
	}
}

// TestQueryUnderWideStore: a store rule whose range exceeds the
// ground-expansion limit (1100 data leaves × 1000 purpose leaves) is
// enforced without being materialized, for ground and composite
// categories alike.
func TestQueryUnderWideStore(t *testing.T) {
	v := vocab.New()
	data := v.MustAttribute("data")
	data.MustAdd("", "records")
	data.MustAdd("records", "labs")
	for i := 0; i < 1100; i++ {
		data.MustAdd("labs", fmt.Sprintf("d%d", i))
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
	ps := policy.FromRules("PS", policy.MustRule(
		policy.T("data", "labs"), policy.T("purpose", "any"), policy.T("authorized", "nurse")))
	if n := policy.NewSymRange(ps, v).Card(); n <= policy.DefaultRangeLimit {
		t.Fatalf("fixture: #Range(ps) = %d, want above the expansion limit", n)
	}

	db := minidb.NewDatabase()
	db.MustExec(`CREATE TABLE results (patient TEXT, glucose TEXT, panel TEXT)`)
	db.MustExec(`INSERT INTO results VALUES ('p1', '5.4', 'cbc')`)
	enf := New(db, ps, v, nil, audit.NewLog("clinic"))
	if err := enf.RegisterTable(TableMapping{
		Table:      "results",
		PatientCol: "patient",
		Categories: map[string]string{"glucose": "d7", "panel": "labs"},
	}); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT glucose, panel FROM results`
	res, acc, err := enf.Query(Principal{User: "tim", Role: "nurse"}, "p42", sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(acc.Masked) != 0 {
		t.Fatalf("nurse: rows %d, access %+v", len(res.Rows), acc)
	}
	// "any" is composite: every one of its purposes is covered.
	if _, acc, err := enf.Query(Principal{User: "tim", Role: "nurse"}, "any", sql); err != nil || len(acc.Masked) != 0 {
		t.Fatalf("nurse for any purpose: access %+v, err %v", acc, err)
	}
	if _, _, err := enf.Query(Principal{User: "bill", Role: "clerk"}, "p42", sql); !errors.Is(err, ErrDenied) {
		t.Fatalf("clerk: err = %v, want ErrDenied", err)
	}
}
