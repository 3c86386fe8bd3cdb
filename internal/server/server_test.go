package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	prima "repro"
	"repro/internal/scenario"
)

func newServer(t *testing.T) (*Server, *prima.System) {
	t.Helper()
	sys := prima.New(prima.Config{Policy: scenario.PolicyStore()})
	step := 0
	base := time.Date(2007, 3, 1, 8, 0, 0, 0, time.UTC)
	sys.SetClock(func() time.Time { step++; return base.Add(time.Duration(step) * time.Second) })
	sys.DB().MustExec(`CREATE TABLE records (patient TEXT, referral TEXT, psychiatry TEXT)`)
	sys.DB().MustExec(`INSERT INTO records VALUES ('p1','cardio','none'), ('p2','derm','anxiety')`)
	if err := sys.RegisterTable(prima.TableMapping{
		Table: "records", PatientCol: "patient",
		Categories: map[string]string{"referral": "referral", "psychiatry": "psychiatry"},
	}); err != nil {
		t.Fatal(err)
	}
	return New(sys), sys
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad body %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, http.MethodPost, "/query", QueryRequest{
		User: "tim", Role: "nurse", Purpose: "treatment", SQL: "SELECT referral FROM records",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[QueryResponse](t, rec)
	if len(resp.Rows) != 2 || resp.Columns[0] != "referral" {
		t.Errorf("resp = %+v", resp)
	}
	// Denied query → 403.
	rec = do(t, s, http.MethodPost, "/query", QueryRequest{
		User: "mark", Role: "nurse", Purpose: "registration", SQL: "SELECT referral FROM records",
	})
	if rec.Code != http.StatusForbidden {
		t.Errorf("denied status = %d", rec.Code)
	}
	// Bad SQL → 400.
	rec = do(t, s, http.MethodPost, "/query", QueryRequest{
		User: "tim", Role: "nurse", Purpose: "treatment", SQL: "SELEC",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad sql status = %d", rec.Code)
	}
	// Wrong method → 405; malformed body → 400.
	if rec := do(t, s, http.MethodGet, "/query", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("method status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader("{nope"))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", rr.Code)
	}
}

// TestRequestBodyBound: every JSON endpoint reads at most
// maxBodyBytes. A larger body is refused with 413 before it reaches
// the system, and the refusal leaves no audit trace.
func TestRequestBodyBound(t *testing.T) {
	s, sys := newServer(t)
	pad := strings.Repeat("x", maxBodyBytes)
	for path, field := range map[string]string{
		"/query": "sql", "/breakglass": "sql", "/policy/rules": "rule",
		"/consent": "patient", "/refine": "default",
	} {
		body := `{"` + field + `":"` + pad + `"}`
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body status = %d, want 413: %.200s", path, rec.Code, rec.Body.String())
		}
	}
	if n := len(sys.AuditLog().Snapshot()); n != 0 {
		t.Errorf("oversized requests left %d audit entries", n)
	}
	// A body just under the bound still decodes; the enforcer then
	// refuses the padded SQL, which is a 400, not a 413.
	under := `{"user":"tim","role":"nurse","purpose":"treatment","sql":"` +
		strings.Repeat("x", maxBodyBytes-100) + `"}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(under)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("under-bound body status = %d, want 400", rec.Code)
	}
}

// TestQueryLengthBound: SQL that fits the body bound but not the
// enforcer's length bound — about 1 MiB of '(' — is refused with 400
// before it is parsed, on both query endpoints, and leaves no audit
// trace.
func TestQueryLengthBound(t *testing.T) {
	s, sys := newServer(t)
	for _, path := range []string{"/query", "/breakglass"} {
		head := `{"user":"tim","role":"nurse","purpose":"treatment","reason":"r","sql":"SELECT referral FROM records WHERE `
		body := head + strings.Repeat("(", maxBodyBytes-len(head)-2) + `"}`
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "limit") {
			t.Errorf("%s: %d-byte body: status = %d, want 400 with a length error: %.200s", path, len(body), rec.Code, rec.Body.String())
		}
	}
	if n := len(sys.AuditLog().Snapshot()); n != 0 {
		t.Errorf("refused queries left %d audit entries", n)
	}
}

func TestBreakGlassAndRefineFlow(t *testing.T) {
	s, _ := newServer(t)
	for _, u := range []string{"mark", "tim", "bob", "mark", "tim"} {
		rec := do(t, s, http.MethodPost, "/breakglass", QueryRequest{
			User: u, Role: "nurse", Purpose: "registration",
			Reason: "front desk backlog", SQL: "SELECT referral FROM records",
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("breakglass status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	// Missing reason rejected.
	rec := do(t, s, http.MethodPost, "/breakglass", QueryRequest{
		User: "mark", Role: "nurse", Purpose: "registration", SQL: "SELECT referral FROM records",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("reasonless breakglass = %d", rec.Code)
	}

	// Patterns visible.
	rec = do(t, s, http.MethodGet, "/patterns", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("patterns status = %d", rec.Code)
	}
	pats := decodeBody[map[string][]PatternJSON](t, rec)
	if len(pats["patterns"]) != 1 || pats["patterns"][0].Support != 5 {
		t.Fatalf("patterns = %+v", pats)
	}

	// Coverage before refinement.
	rec = do(t, s, http.MethodGet, "/coverage", nil)
	cov := decodeBody[CoverageResponse](t, rec)
	if cov.EntryCoverage >= 1 || len(cov.Gaps) == 0 {
		t.Errorf("coverage = %+v", cov)
	}

	// Refine with default adopt.
	rec = do(t, s, http.MethodPost, "/refine", RefineRequest{})
	if rec.Code != http.StatusOK {
		t.Fatalf("refine status = %d: %s", rec.Code, rec.Body.String())
	}
	ref := decodeBody[RefineResponse](t, rec)
	if len(ref.Adopted) != 1 || ref.CoverageAfter <= ref.CoverageBefore {
		t.Errorf("refine = %+v", ref)
	}

	// The adopted rule is live.
	rec = do(t, s, http.MethodPost, "/query", QueryRequest{
		User: "mark", Role: "nurse", Purpose: "registration", SQL: "SELECT referral FROM records",
	})
	if rec.Code != http.StatusOK {
		t.Errorf("post-adoption query = %d", rec.Code)
	}
}

func TestRefineWithExplicitDecisions(t *testing.T) {
	s, _ := newServer(t)
	for _, u := range []string{"a", "b", "c", "a", "b"} {
		if rec := do(t, s, http.MethodPost, "/breakglass", QueryRequest{
			User: u, Role: "nurse", Purpose: "registration",
			Reason: "r", SQL: "SELECT referral FROM records",
		}); rec.Code != http.StatusOK {
			t.Fatal(rec.Body.String())
		}
	}
	rec := do(t, s, http.MethodPost, "/refine", RefineRequest{
		Default: "adopt",
		Decisions: map[string]string{
			"data=referral & purpose=registration & authorized=nurse": "reject",
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("refine status = %d: %s", rec.Code, rec.Body.String())
	}
	ref := decodeBody[RefineResponse](t, rec)
	if len(ref.Adopted) != 0 || len(ref.Rejected) != 1 {
		t.Errorf("refine = %+v", ref)
	}
	// Bad decision strings rejected.
	for _, body := range []RefineRequest{
		{Default: "nonsense"},
		{Decisions: map[string]string{"data=x": "maybe"}},
		{Decisions: map[string]string{"notarule": "adopt"}},
	} {
		if rec := do(t, s, http.MethodPost, "/refine", body); rec.Code != http.StatusBadRequest {
			t.Errorf("bad refine body accepted: %+v -> %d", body, rec.Code)
		}
	}
}

func TestRulesEndpoint(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, http.MethodGet, "/policy/rules", nil)
	rules := decodeBody[map[string][]string](t, rec)
	if len(rules["rules"]) != 3 {
		t.Fatalf("rules = %v", rules)
	}
	rec = do(t, s, http.MethodPost, "/policy/rules", RuleRequest{Rule: "data=insurance & purpose=billing & authorized=clerk"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("add rule = %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, http.MethodPost, "/policy/rules", RuleRequest{Rule: "data=bogus & purpose=billing & authorized=clerk"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad rule = %d", rec.Code)
	}
	rec = do(t, s, http.MethodDelete, "/policy/rules", RuleRequest{Rule: "data=insurance & purpose=billing & authorized=clerk"})
	if rec.Code != http.StatusOK {
		t.Errorf("delete = %d", rec.Code)
	}
	rec = do(t, s, http.MethodDelete, "/policy/rules", RuleRequest{Rule: "data=insurance & purpose=billing & authorized=clerk"})
	if rec.Code != http.StatusNotFound {
		t.Errorf("re-delete = %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPut, "/policy/rules", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("put = %d", rec.Code)
	}
}

func TestConsentEndpoint(t *testing.T) {
	s, _ := newServer(t)
	rec := do(t, s, http.MethodPost, "/consent", ConsentRequest{
		Patient: "p2", Data: "clinical", Choice: "opt-out",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("consent = %d: %s", rec.Code, rec.Body.String())
	}
	// The opt-out takes effect on queries.
	qrec := do(t, s, http.MethodPost, "/query", QueryRequest{
		User: "tim", Role: "nurse", Purpose: "treatment", SQL: "SELECT patient, referral FROM records",
	})
	resp := decodeBody[QueryResponse](t, qrec)
	if len(resp.Rows) != 1 {
		t.Errorf("consented rows = %v", resp.Rows)
	}
	rec = do(t, s, http.MethodPost, "/consent", ConsentRequest{Patient: "p2", Choice: "revoke"})
	if rec.Code != http.StatusOK {
		t.Errorf("revoke = %d", rec.Code)
	}
	rec = do(t, s, http.MethodPost, "/consent", ConsentRequest{Patient: "p2", Choice: "maybe"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad choice = %d", rec.Code)
	}
	rec = do(t, s, http.MethodPost, "/consent", ConsentRequest{Patient: "", Choice: "opt-out"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty patient = %d", rec.Code)
	}
}

func TestAuditEndpoint(t *testing.T) {
	s, _ := newServer(t)
	do(t, s, http.MethodPost, "/query", QueryRequest{
		User: "tim", Role: "nurse", Purpose: "treatment", SQL: "SELECT referral FROM records",
	})
	do(t, s, http.MethodPost, "/breakglass", QueryRequest{
		User: "tim", Role: "nurse", Purpose: "registration", Reason: "r", SQL: "SELECT referral FROM records",
	})
	type page struct {
		Entries []prima.Entry `json:"entries"`
		Next    uint64        `json:"next"`
	}
	get := func(target string) page {
		t.Helper()
		rec := do(t, s, http.MethodGet, target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, rec.Code, rec.Body.String())
		}
		var p page
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if all := get("/audit"); len(all.Entries) != 2 || all.Next != 2 {
		t.Fatalf("whole log: %d entries, next %d", len(all.Entries), all.Next)
	}
	// Paging one entry at a time walks the log in append order and
	// ends where next stops moving.
	first := get("/audit?limit=1")
	second := get("/audit?limit=1&after=" + strconv.FormatUint(first.Next, 10))
	last := get("/audit?limit=1&after=" + strconv.FormatUint(second.Next, 10))
	if len(first.Entries) != 1 || first.Entries[0].Status != prima.StatusRegular ||
		len(second.Entries) != 1 || second.Entries[0].Status != prima.StatusException ||
		len(last.Entries) != 0 || last.Next != second.Next {
		t.Fatalf("paging: %+v, %+v, %+v", first, second, last)
	}
	if exc := get("/audit?status=exception"); len(exc.Entries) != 1 || exc.Entries[0].Status != prima.StatusException || exc.Next != 2 {
		t.Errorf("exception filter = %+v", exc)
	}
	for _, bad := range []string{"/audit?limit=0", "/audit?limit=x", "/audit?after=-1"} {
		if rec := do(t, s, http.MethodGet, bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", bad, rec.Code)
		}
	}
}

// TestAuditEndpointPageBound: a page holds at most maxAuditPage
// entries whatever limit asks for, and paging returns every entry once.
func TestAuditEndpointPageBound(t *testing.T) {
	s, sys := newServer(t)
	const n = maxAuditPage + 5
	es := make([]prima.Entry, n)
	for i := range es {
		es[i] = prima.Entry{Time: time.Date(2026, 1, 1, 0, 0, i, 0, time.UTC), Op: prima.OpAllow,
			User: "u" + strconv.Itoa(i), Data: "referral", Purpose: "treatment", Authorized: "nurse", Status: prima.StatusRegular}
	}
	if err := sys.AuditLog().Append(es...); err != nil {
		t.Fatal(err)
	}
	var users []string
	var after uint64
	for {
		rec := do(t, s, http.MethodGet, "/audit?limit=5000&after="+strconv.FormatUint(after, 10), nil)
		var p struct {
			Entries []prima.Entry `json:"entries"`
			Next    uint64        `json:"next"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Entries) > maxAuditPage {
			t.Fatalf("page of %d entries", len(p.Entries))
		}
		if p.Next == after {
			break
		}
		for _, e := range p.Entries {
			users = append(users, e.User)
		}
		after = p.Next
	}
	if len(users) != n {
		t.Fatalf("paged %d entries, want %d", len(users), n)
	}
	for i, u := range users {
		if u != "u"+strconv.Itoa(i) {
			t.Fatalf("entry %d is %s", i, u)
		}
	}
}

func TestGeneralizeEndpoint(t *testing.T) {
	s, sys := newServer(t)
	// Add the sibling leaves so generalization has work to do.
	for _, d := range []string{"prescription", "lab_result"} {
		if rec := do(t, s, http.MethodPost, "/policy/rules",
			RuleRequest{Rule: "data=" + d + " & purpose=treatment & authorized=nurse"}); rec.Code != http.StatusCreated {
			t.Fatal(rec.Body.String())
		}
	}
	before := len(sys.Rules())
	rec := do(t, s, http.MethodPost, "/generalize", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("generalize = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[GeneralizeResponse](t, rec)
	if resp.RulesBefore != before || resp.RulesAfter >= before {
		t.Errorf("resp = %+v (before=%d)", resp, before)
	}
	if rec := do(t, s, http.MethodGet, "/generalize", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET generalize = %d", rec.Code)
	}
}

func TestReportEndpoint(t *testing.T) {
	s, _ := newServer(t)
	for _, u := range []string{"a", "b", "c", "a", "b"} {
		do(t, s, http.MethodPost, "/breakglass", QueryRequest{
			User: u, Role: "nurse", Purpose: "registration",
			Reason: "r", SQL: "SELECT referral FROM records",
		})
	}
	rec := do(t, s, http.MethodGet, "/report?title=Ward+review", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("report = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "markdown") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{"# Ward review", "Policy coverage", "Audit statistics"} {
		if !strings.Contains(body, want) {
			t.Errorf("report missing %q:\n%s", want, body)
		}
	}
	if rec := do(t, s, http.MethodPost, "/report", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST report = %d", rec.Code)
	}
}

func TestPatternsEvidenceEndpoint(t *testing.T) {
	s, _ := newServer(t)
	for _, u := range []string{"a", "b", "c", "a", "b"} {
		do(t, s, http.MethodPost, "/breakglass", QueryRequest{
			User: u, Role: "nurse", Purpose: "registration",
			Reason: "r", SQL: "SELECT referral FROM records",
		})
	}
	rec := do(t, s, http.MethodGet, "/patterns?evidence=1", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeBody[map[string][]EvidenceJSON](t, rec)
	evs := resp["evidence"]
	if len(evs) != 1 || evs[0].Support != 5 || evs[0].DistinctUsers != 3 {
		t.Fatalf("evidence = %+v", evs)
	}
	if evs[0].Suspicion <= 0 || evs[0].Suspicion >= 1 {
		t.Errorf("suspicion = %v", evs[0].Suspicion)
	}
}
