package hdb

import (
	"fmt"
	"reflect"
	"runtime"
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

// side is one independently seeded enforcement stack for differential
// compiled-vs-reference testing.
type side struct {
	enf *Enforcer
	ps  *policy.Policy
	v   *vocab.Vocabulary
	cs  *consent.Store
	log *audit.Log
	db  *minidb.Database
}

// newSide builds a full stack identical to fixture() but returning
// every layer. Both sides of a differential test get the same
// stepping clock, so audit timestamps line up entry for entry.
func newSide(t testing.TB) *side {
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
	return &side{enf: enf, ps: ps, v: v, cs: cs, log: log, db: db}
}

// diffStep is one entry in the differential battery: an optional
// mutation applied to both sides, then (when sql is set) a query run
// on both with every observable compared.
type diffStep struct {
	name       string
	mutate     func(t *testing.T, s *side)
	p          Principal
	purpose    string
	sql        string
	reason     string
	breakGlass bool
}

func runDiff(t *testing.T, steps []diffStep) {
	t.Helper()
	fastS := newSide(t)
	slowS := newSide(t)
	for _, st := range steps {
		if st.mutate != nil {
			st.mutate(t, fastS)
			st.mutate(t, slowS)
		}
		if st.sql == "" {
			continue
		}
		var fr, sr *minidb.Result
		var fa, sa *Access
		var fe, se error
		if st.breakGlass {
			fr, fa, fe = fastS.enf.BreakGlass(st.p, st.purpose, st.reason, st.sql)
			sr, sa, se = slowS.enf.referenceBreakGlass(st.p, st.purpose, st.reason, st.sql)
		} else {
			fr, fa, fe = fastS.enf.Query(st.p, st.purpose, st.sql)
			sr, sa, se = slowS.enf.referenceQuery(st.p, st.purpose, st.sql)
		}
		if (fe == nil) != (se == nil) {
			t.Fatalf("%s: fast err = %v, slow err = %v", st.name, fe, se)
		}
		if fe != nil && fe.Error() != se.Error() {
			t.Errorf("%s: error text diverged\nfast: %s\nslow: %s", st.name, fe, se)
		}
		if !reflect.DeepEqual(fr, sr) {
			t.Errorf("%s: results diverged\nfast: %+v\nslow: %+v", st.name, fr, sr)
		}
		if !reflect.DeepEqual(fa, sa) {
			t.Errorf("%s: access diverged\nfast: %+v\nslow: %+v", st.name, fa, sa)
		}
	}
	// The audit trails must agree entry for entry (timestamps come
	// from the twin stepping clocks, so even those line up).
	fl, sl := fastS.log.Snapshot(), slowS.log.Snapshot()
	if !reflect.DeepEqual(fl, sl) {
		t.Errorf("audit trails diverged\nfast: %+v\nslow: %+v", fl, sl)
	}
}

// TestDifferentialFastSlow drives the same scripted battery through
// Query/BreakGlass on one stack and the reference interpreter
// (reference_test.go) on a twin stack, asserting byte-identical
// results, Access reports, error text, and audit trails across allow,
// mask, deny, consent, break-glass, star expansion, unknown vocabulary
// values, joins, composite values, and mid-sequence
// policy/vocabulary/consent mutation.
func TestDifferentialFastSlow(t *testing.T) {
	psychRule := policy.MustRule(
		policy.T("data", "psychiatry"),
		policy.T("purpose", "billing"),
		policy.T("authorized", "clerk"),
	)
	nurseRule := policy.MustRule(
		policy.T("data", "general"),
		policy.T("purpose", "treatment"),
		policy.T("authorized", "nurse"),
	)
	steps := []diffStep{
		{name: "allow", p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records`},
		{name: "mask", p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral, psychiatry FROM records`},
		{name: "mask warm", p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral, psychiatry FROM records`},
		{name: "full deny", p: clerk(), purpose: "billing",
			sql: `SELECT psychiatry FROM records`},
		{name: "where deny", p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records WHERE psychiatry = 'anxiety'`},
		{name: "order-by deny", p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records ORDER BY psychiatry`},
		{name: "star", p: nurse(), purpose: "treatment",
			sql: `SELECT * FROM records`},
		{name: "composite purpose", p: nurse(), purpose: "healthcare",
			sql: `SELECT patient, referral FROM records`},
		{name: "composite role", p: Principal{User: "sam", Role: "medical_staff"},
			purpose: "treatment", sql: `SELECT patient, referral FROM records`},
		{name: "unknown role", p: Principal{User: "eve", Role: "visitor"},
			purpose: "treatment", sql: `SELECT patient, referral FROM records`},
		{name: "break glass", p: clerk(), purpose: "billing", reason: "emergency",
			breakGlass: true, sql: `SELECT patient, psychiatry FROM records`},
		{name: "consent filter",
			mutate: func(t *testing.T, s *side) {
				if err := s.cs.Set("p2", "referral", "", consent.OptOut, t0); err != nil {
					t.Fatal(err)
				}
			},
			p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records`},
		{name: "consent revoked",
			mutate: func(t *testing.T, s *side) {
				if n := s.cs.Revoke("p2"); n != 1 {
					t.Fatalf("Revoke = %d", n)
				}
			},
			p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records`},
		{name: "policy add",
			mutate: func(t *testing.T, s *side) {
				if !s.ps.Add(psychRule) {
					t.Fatal("Add returned false")
				}
			},
			p: clerk(), purpose: "billing",
			sql: `SELECT psychiatry FROM records`},
		{name: "policy remove",
			mutate: func(t *testing.T, s *side) {
				if !s.ps.Remove(nurseRule) {
					t.Fatal("Remove returned false")
				}
			},
			p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records`},
		{name: "policy restore",
			mutate: func(t *testing.T, s *side) {
				if !s.ps.Add(nurseRule) {
					t.Fatal("Add returned false")
				}
			},
			p: nurse(), purpose: "treatment",
			sql: `SELECT patient, referral FROM records`},
		{name: "unknown purpose", p: nurse(), purpose: "triage",
			sql: `SELECT patient, referral FROM records`},
		{name: "after vocab add",
			mutate: func(t *testing.T, s *side) {
				if err := s.v.Hierarchy("purpose").Add("healthcare", "triage"); err != nil {
					t.Fatal(err)
				}
			},
			p: nurse(), purpose: "triage",
			sql: `SELECT patient, referral FROM records`},
		{name: "join", p: nurse(), purpose: "treatment",
			sql: `SELECT r.referral FROM records r JOIN records s ON r.patient = s.patient`},
		{name: "parse error", p: nurse(), purpose: "treatment",
			sql: `SELEC patient FROM records`},
		{name: "unknown table", p: nurse(), purpose: "treatment",
			sql: `SELECT x FROM nowhere`},
		{name: "non-select", p: nurse(), purpose: "treatment",
			sql: `INSERT INTO records VALUES ('p4','a','b','c','d')`},
		{name: "blank purpose", p: nurse(), purpose: "   ",
			sql: `SELECT patient FROM records`},
	}
	runDiff(t, steps)
}

// TestSnapshotInvalidation checks that the RCU snapshot is reused
// while nothing changes and rebuilt on each version bump.
func TestSnapshotInvalidation(t *testing.T) {
	s := newSide(t)
	q := func() { // any enforced query forces a snapshot
		if _, _, err := s.enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`); err != nil {
			t.Fatal(err)
		}
	}
	q()
	s1 := s.enf.snap.Load()
	if s1 == nil {
		t.Fatal("no snapshot after query")
	}
	q()
	if s.enf.snap.Load() != s1 {
		t.Error("snapshot rebuilt without any mutation")
	}

	s.ps.Add(policy.MustRule(
		policy.T("data", "payment_history"),
		policy.T("purpose", "billing"),
		policy.T("authorized", "manager"),
	))
	q()
	s2 := s.enf.snap.Load()
	if s2 == s1 {
		t.Error("policy mutation did not rebuild the snapshot")
	}

	if err := s.v.Hierarchy("data").Add("financial", "copay"); err != nil {
		t.Fatal(err)
	}
	q()
	s3 := s.enf.snap.Load()
	if s3 == s2 {
		t.Error("vocabulary mutation did not rebuild the snapshot")
	}

	if err := s.cs.Set("p1", "address", "", consent.OptOut, t0); err != nil {
		t.Fatal(err)
	}
	q()
	if s.enf.snap.Load() == s3 {
		t.Error("consent mutation did not rebuild the snapshot")
	}
}

// TestSnapshotExpiryHorizon checks that a consent record expiring as
// the enforcer's clock runs invalidates the snapshot without any store
// mutation.
func TestSnapshotExpiryHorizon(t *testing.T) {
	s := newSide(t)
	now := t0
	s.enf.SetClock(func() time.Time { return now })
	if err := s.cs.SetWithExpiry("p2", "referral", "", consent.OptOut,
		now.Add(-time.Minute), now.Add(120*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	res, acc, err := s.enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if acc.OptedOut != 1 || len(res.Rows) != 2 {
		t.Fatalf("pre-expiry: optedOut = %d, rows = %d", acc.OptedOut, len(res.Rows))
	}
	now = now.Add(200 * time.Millisecond)
	res, acc, err = s.enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if acc.OptedOut != 0 || len(res.Rows) != 3 {
		t.Errorf("post-expiry: optedOut = %d, rows = %d; snapshot outlived its horizon", acc.OptedOut, len(res.Rows))
	}
}

// TestPlanInvalidation checks the plan cache against mapping and
// schema generations.
func TestPlanInvalidation(t *testing.T) {
	s := newSide(t)
	const q = `SELECT * FROM records`
	res, _, err := s.enf.Query(nurse(), "treatment", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 5 {
		t.Fatalf("columns = %v", res.Columns)
	}
	// Re-registering the mapping must recompile plans.
	if err := s.enf.RegisterTable(TableMapping{
		Table:      "records",
		PatientCol: "patient",
		Categories: map[string]string{"referral": "referral"},
	}); err != nil {
		t.Fatal(err)
	}
	_, acc, err := s.enf.Query(nurse(), "treatment", q)
	if err != nil {
		t.Fatal(err)
	}
	// Only referral is categorized now; psychiatry et al. pass through.
	if len(acc.Categories) != 1 || acc.Categories[0] != "referral" {
		t.Errorf("post-remap categories = %v", acc.Categories)
	}
	// Schema change (drop + recreate) must invalidate compiled star
	// expansion.
	if err := s.db.DropTable("records"); err != nil {
		t.Fatal(err)
	}
	s.db.MustExec(`CREATE TABLE records (patient TEXT, referral TEXT)`)
	s.db.MustExec(`INSERT INTO records VALUES ('p1', 'cardio')`)
	res, _, err = s.enf.Query(nurse(), "treatment", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 {
		t.Errorf("post-schema-change columns = %v", res.Columns)
	}
}

// TestPlanCacheBound floods the cache past planCacheMax and checks the
// wholesale sweep leaves enforcement correct.
func TestPlanCacheBound(t *testing.T) {
	if testing.Short() {
		t.Skip("floods the plan cache")
	}
	s := newSide(t)
	for i := 0; i < planCacheMax+4; i++ {
		sql := fmt.Sprintf(`SELECT patient, referral FROM records LIMIT %d`, i+1)
		if _, _, err := s.enf.Query(nurse(), "treatment", sql); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.enf.planN.Load(); n > planCacheMax {
		t.Errorf("plan count %d exceeds bound %d", n, planCacheMax)
	}
	res, acc, err := s.enf.Query(nurse(), "treatment", `SELECT patient, referral, psychiatry FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(acc.Masked) != 1 {
		t.Errorf("post-sweep rows = %d, masked = %v", len(res.Rows), acc.Masked)
	}
}

// TestPlanCacheBytes floods the enforcer with 2 × planCacheMax
// distinct allowed queries of maxSQLBytes each and checks the live heap
// (after GC) grows by less than planBytesBound: long SQL is planned per
// call, not cached, so the count bound is not a byte bound of up to
// planCacheMax × (SQL key + AST literal) ≈ 32 MiB.
func TestPlanCacheBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("floods the plan cache")
	}
	const planBytesBound = 4 << 20
	s := newSide(t)
	const prefix = `SELECT patient, referral FROM records WHERE patient = '`
	width := maxSQLBytes - len(prefix) - 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*planCacheMax; i++ {
		sql := fmt.Sprintf("%s%0*d'", prefix, width, i)
		if _, _, err := s.enf.Query(nurse(), "treatment", sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d bytes", grew)
	if grew > planBytesBound {
		t.Errorf("live heap grew %d bytes over %d queries of %d bytes, bound %d", grew, 2*planCacheMax, maxSQLBytes, planBytesBound)
	}
	runtime.KeepAlive(s)
}

// TestSQLLengthBound checks the enforcement edge's SQL length bound:
// a left-deep 1+1+…+1 chain exactly maxSQLBytes long executes through
// Query with a bounded stack growth (minidb's evaluator recurses once
// per '+'), and one byte more is refused by Query and BreakGlass before
// parsing, with no audit entry.
func TestSQLLengthBound(t *testing.T) {
	s := newSide(t)
	const prefix, suffix = "SELECT patient, referral FROM records WHERE ", " = 0"
	terms := (maxSQLBytes - len(prefix) - len(suffix) + 1) / 2
	sql := prefix + strings.Repeat("1+", terms-1) + "1" + suffix
	sql += strings.Repeat(" ", maxSQLBytes-len(sql))

	type result struct {
		err   error
		rows  int
		after uint64
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan result)
	go func() {
		res, _, err := s.enf.Query(nurse(), "treatment", sql)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r := result{err: err, after: after.StackInuse}
		if res != nil {
			r.rows = len(res.Rows)
		}
		done <- r
	}()
	r := <-done
	if r.err != nil || r.rows != 0 {
		t.Fatalf("%d-byte chain: rows = %d, err = %v", len(sql), r.rows, r.err)
	}
	var grew uint64
	if r.after > before.StackInuse {
		grew = r.after - before.StackInuse
	}
	const bound = 16 << 20
	if grew > bound {
		t.Fatalf("%d-term chain grew the stack in use by %d bytes, bound %d", terms, grew, bound)
	}
	t.Logf("%d-term chain (%d bytes): stack in use grew %d bytes", terms, len(sql), grew)

	entries := s.log.Len()
	if _, _, err := s.enf.Query(nurse(), "treatment", sql+" "); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("Query past the bound: err = %v, want a length error", err)
	}
	if _, _, err := s.enf.BreakGlass(nurse(), "treatment", "emergency", sql+" "); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("BreakGlass past the bound: err = %v, want a length error", err)
	}
	if n := s.log.Len(); n != entries {
		t.Errorf("refused queries left %d audit entries", n-entries)
	}
}

// TestFlushPlans checks the administrative flush leaves a working
// (cold) fast path.
func TestFlushPlans(t *testing.T) {
	s := newSide(t)
	if _, _, err := s.enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`); err != nil {
		t.Fatal(err)
	}
	s.enf.FlushPlans()
	if s.enf.snap.Load() != nil {
		t.Error("flush left a snapshot")
	}
	res, _, err := s.enf.Query(nurse(), "treatment", `SELECT patient, referral FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

// TestEnforcedChartQueryUsesPatientIndex: RegisterTable indexes the
// mapping's patient column, and a chart query rewritten with the
// consent filter (`patient = '…' AND patient NOT IN (…)`) still reads
// through that index.
func TestEnforcedChartQueryUsesPatientIndex(t *testing.T) {
	s := newSide(t)
	tbl, err := s.db.Table("records")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Indexes(); len(got) != 1 || got[0] != "patient" {
		t.Fatalf("indexes after RegisterTable = %v, want [patient]", got)
	}
	// Registering again keeps the one index.
	if err := s.enf.RegisterTable(TableMapping{Table: "records", PatientCol: "PATIENT"}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Indexes(); len(got) != 1 {
		t.Fatalf("indexes after re-registration = %v", got)
	}
	if err := s.enf.RegisterTable(TableMapping{
		Table: "records", PatientCol: "patient",
		Categories: map[string]string{"referral": "referral"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.cs.Set("p2", "referral", "", consent.OptOut, t0); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT patient, referral FROM records WHERE patient = 'p1'`
	pl, err := s.enf.plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	sp := s.enf.specialize(pl, s.enf.snapshot(t0), "treatment", "nurse", t0)
	if sp.optedOut != 1 {
		t.Fatalf("consent filter excluded %d patients, want 1", sp.optedOut)
	}
	res, err := s.db.ExecStmt(&minidb.ExplainStmt{Select: sp.stmt})
	if err != nil {
		t.Fatal(err)
	}
	if plan := res.Rows[0][0].AsText(); plan != "index lookup records(patient)" {
		t.Fatalf("enforced chart query plan starts %q, want an index lookup", plan)
	}
	got, _, err := s.enf.Query(nurse(), "treatment", sql)
	if err != nil || len(got.Rows) != 1 || got.Rows[0][1].AsText() != "cardio" {
		t.Fatalf("enforced chart read = %v, %v", got, err)
	}
}
