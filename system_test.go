package prima

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/scenario"
)

var clock0 = time.Date(2007, 3, 1, 8, 0, 0, 0, time.UTC)

// hospital builds a fully wired System with the Figure 3 policy and a
// small records table.
func hospital(t *testing.T) *System {
	t.Helper()
	sys := New(Config{Policy: scenario.PolicyStore()})
	step := 0
	sys.SetClock(func() time.Time { step++; return clock0.Add(time.Duration(step) * time.Second) })
	sys.DB().MustExec(`CREATE TABLE records (
		patient TEXT, address TEXT, prescription TEXT, referral TEXT, psychiatry TEXT, insurance TEXT
	)`)
	sys.DB().MustExec(`INSERT INTO records VALUES
		('p1', '1 Elm St',  'aspirin', 'cardio', 'none',    'acme-health'),
		('p2', '2 Oak Ave', 'statins', 'derm',   'anxiety', 'medicare'),
		('p3', '3 Pine Rd', 'insulin', 'endo',   'none',    'acme-health')`)
	if err := sys.RegisterTable(TableMapping{
		Table:      "records",
		PatientCol: "patient",
		Categories: map[string]string{
			"address": "address", "prescription": "prescription",
			"referral": "referral", "psychiatry": "psychiatry", "insurance": "insurance",
		},
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemDefaults(t *testing.T) {
	sys := New(Config{})
	if sys.Vocabulary() == nil || sys.PolicyStore() == nil || sys.AuditLog() == nil {
		t.Fatal("defaults missing")
	}
	if sys.PolicyStore().Len() != 0 {
		t.Error("default policy should be empty")
	}
	if len(sys.Rules()) != 0 {
		t.Error("Rules() on empty store")
	}
}

func TestSystemFullLoop(t *testing.T) {
	// The complete PRIMA story on the facade: enforce → deny →
	// break glass (repeatedly, multiple users) → coverage drops →
	// refine → adopt → enforce now allows → coverage recovers.
	sys := hospital(t)

	// Regular allowed access.
	res, _, err := sys.Query("tim", "nurse", "treatment", `SELECT referral FROM records`)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("allowed query: %v %v", res, err)
	}

	// Registration via referral is not in policy: denied, then five
	// break-glass accesses by three nurses.
	if _, _, err := sys.Query("mark", "nurse", "registration", `SELECT referral FROM records`); !errors.Is(err, ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
	for _, u := range []string{"mark", "tim", "bob", "mark", "tim"} {
		if _, _, err := sys.BreakGlass(u, "nurse", "registration", "front desk backlog",
			`SELECT referral FROM records`); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := sys.EntryCoverage()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage >= 1 {
		t.Fatalf("coverage should have dropped: %+v", rep)
	}

	patterns, err := sys.Patterns()
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 1 || patterns[0].Rule.Key() != scenario.RefinementPattern().Key() {
		t.Fatalf("patterns = %v", patterns)
	}

	round, err := sys.RunRefinement(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Adopted) != 1 || round.CoverageAfter <= round.CoverageBefore {
		t.Fatalf("round = %+v", round)
	}
	if len(sys.RefinementHistory()) != 1 {
		t.Error("history not recorded")
	}

	// The adopted rule takes effect.
	res, _, err = sys.Query("mark", "nurse", "registration", `SELECT referral FROM records`)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("post-adoption query: %v %v", res, err)
	}
}

func TestSystemCoverageAlgorithm1(t *testing.T) {
	sys := hospital(t)
	// Reproduce a Figure 3-like state through the middleware, then
	// check set-semantics coverage.
	if _, _, err := sys.Query("john", "nurse", "treatment", `SELECT prescription FROM records`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.BreakGlass("mark", "nurse", "registration", "backlog", `SELECT referral FROM records`); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RangeY != 2 || rep.Overlap != 1 || math.Abs(rep.Coverage-0.5) > 1e-12 {
		t.Errorf("coverage report = %+v", rep)
	}
	if len(rep.Gaps) != 1 || len(rep.Gaps[0].NearMisses) == 0 {
		t.Errorf("gap explanations missing: %+v", rep.Gaps)
	}
}

func TestSystemConsent(t *testing.T) {
	sys := hospital(t)
	if err := sys.SetConsent("p2", "clinical", "", OptOut, clock0); err != nil {
		t.Fatal(err)
	}
	res, acc, err := sys.Query("tim", "nurse", "treatment", `SELECT patient, referral FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || acc.OptedOut != 1 {
		t.Errorf("consent filter: rows=%d optedOut=%d", len(res.Rows), acc.OptedOut)
	}
	if n := sys.RevokeConsent("p2"); n != 1 {
		t.Errorf("revoked %d", n)
	}
	res, _, err = sys.Query("tim", "nurse", "treatment", `SELECT patient, referral FROM records`)
	if err != nil || len(res.Rows) != 3 {
		t.Errorf("post-revoke rows = %d, %v", len(res.Rows), err)
	}
}

func TestSystemRuleManagement(t *testing.T) {
	sys := hospital(t)
	n := len(sys.Rules())
	r, err := sys.AddRule("data=insurance & purpose=billing & authorized=clerk")
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Rules()) != n+1 {
		t.Error("rule not added")
	}
	res, _, err := sys.Query("bill", "clerk", "billing", `SELECT insurance FROM records`)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("new rule not effective: %v", err)
	}
	ok, err := sys.RemoveRule(r.Compact())
	if err != nil || !ok {
		t.Fatalf("remove: %v %v", ok, err)
	}
	if _, _, err := sys.Query("bill", "clerk", "billing", `SELECT insurance FROM records`); !errors.Is(err, ErrDenied) {
		t.Errorf("removed rule still effective: %v", err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	v := SampleVocabulary()
	if len(v.Attributes()) == 0 {
		t.Fatal("sample vocabulary empty")
	}
	r, err := ParseRule("data=referral & purpose=treatment & authorized=nurse")
	if err != nil || r.Len() != 3 {
		t.Fatalf("ParseRule: %v %v", r, err)
	}
	p, err := ParsePolicy("PS", strings.NewReader(r.Compact()+"\n"))
	if err != nil || p.Len() != 1 {
		t.Fatalf("ParsePolicy: %v %v", p, err)
	}
	c, err := ComputeCoverage(p, p, v)
	if err != nil || c != 1 {
		t.Errorf("ComputeCoverage: %v %v", c, err)
	}
	rep, err := CoverageDetail(scenario.PolicyStore(), scenario.Figure3AuditPolicy(), v)
	if err != nil || math.Abs(rep.Coverage-0.5) > 1e-12 {
		t.Errorf("CoverageDetail: %v %v", rep, err)
	}
	erep, err := EntryCoverage(scenario.PolicyStore(), scenario.Table1(), v)
	if err != nil || math.Abs(erep.Coverage-0.3) > 1e-12 {
		t.Errorf("EntryCoverage: %v %v", erep, err)
	}
	pats, err := Refine(scenario.PolicyStore(), scenario.Table1(), v, RefineOptions{})
	if err != nil || len(pats) != 1 {
		t.Errorf("Refine: %v %v", pats, err)
	}
	pats, err = Refine(scenario.PolicyStore(), scenario.Table1(), v, RefineOptions{Extractor: MiningExtractor(false)})
	if err != nil || len(pats) != 1 {
		t.Errorf("Refine via mining: %v %v", pats, err)
	}
	al := EntriesToPolicy("AL", scenario.Table1())
	if al.Len() != 6 {
		t.Errorf("EntriesToPolicy: %d", al.Len())
	}
	var buf strings.Builder
	if err := WriteAuditCSV(&buf, scenario.Table1()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAuditCSV(strings.NewReader(buf.String()))
	if err != nil || len(back) != 10 {
		t.Errorf("audit CSV round trip: %d %v", len(back), err)
	}
	buf.Reset()
	if err := WriteAuditJSONL(&buf, scenario.Table1()); err != nil {
		t.Fatal(err)
	}
	back, err = ReadAuditJSONL(strings.NewReader(buf.String()))
	if err != nil || len(back) != 10 {
		t.Errorf("audit JSONL round trip: %d %v", len(back), err)
	}
	sim, err := NewSimulator(DefaultHospital(1))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sim.Run(0, 2)
	if err != nil || len(entries) == 0 {
		t.Errorf("simulator: %d %v", len(entries), err)
	}
	sc := EvaluateExtraction(nil, nil, nil)
	if sc.Precision != 0 {
		t.Errorf("score: %+v", sc)
	}
}

// ExampleComputeCoverage_figure3 reproduces the paper's §3.3 example.
func ExampleComputeCoverage_figure3() {
	v := SampleVocabulary()
	ps, _ := ParsePolicy("PS", strings.NewReader(`
data=general & purpose=treatment & authorized=nurse
data=psychiatry & purpose=treatment & authorized=psychiatrist
data=demographic & purpose=billing & authorized=clerk
`))
	al, _ := ParsePolicy("AL", strings.NewReader(`
data=prescription & purpose=treatment & authorized=nurse
data=referral & purpose=treatment & authorized=nurse
data=referral & purpose=registration & authorized=nurse
data=psychiatry & purpose=treatment & authorized=nurse
data=address & purpose=billing & authorized=clerk
data=prescription & purpose=billing & authorized=clerk
`))
	c, _ := ComputeCoverage(ps, al, v)
	fmt.Printf("coverage: %.0f%%\n", c*100)
	// Output: coverage: 50%
}

// ExampleRefine_table1 reproduces the §5 use-case walk-through.
func ExampleRefine_table1() {
	v := SampleVocabulary()
	ps, _ := ParsePolicy("PS", strings.NewReader(`
data=general & purpose=treatment & authorized=nurse
data=psychiatry & purpose=treatment & authorized=psychiatrist
data=demographic & purpose=billing & authorized=clerk
`))
	entries := scenario.Table1()

	before, _ := EntryCoverage(ps, entries, v)
	patterns, _ := Refine(ps, entries, v, RefineOptions{})
	for _, p := range patterns {
		ps.Add(p.Rule)
	}
	after, _ := EntryCoverage(ps, entries, v)

	fmt.Printf("coverage before: %.0f%%\n", before.Coverage*100)
	fmt.Printf("pattern: %s\n", patterns[0].Rule.Compact())
	fmt.Printf("coverage after: %.0f%%\n", after.Coverage*100)
	// Output:
	// coverage before: 30%
	// pattern: authorized=Nurse & data=Referral & purpose=Registration
	// coverage after: 80%
}

func TestSystemGeneralize(t *testing.T) {
	sys := New(Config{})
	for _, d := range []string{"address", "gender", "phone", "birthdate"} {
		if _, err := sys.AddRule("data=" + d + " & purpose=billing & authorized=clerk"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.Generalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.RulesAfter != 1 || len(sys.Rules()) != 1 {
		t.Fatalf("generalize: %+v, live rules %v", res, sys.Rules())
	}
	if !strings.Contains(sys.Rules()[0], "demographic") {
		t.Errorf("live rule = %q", sys.Rules()[0])
	}
	// The generalized rule is enforced: gender access is now allowed
	// even though only leaf rules were entered.
	sys.DB().MustExec(`CREATE TABLE records (patient TEXT, gender TEXT)`)
	sys.DB().MustExec(`INSERT INTO records VALUES ('p1', 'f')`)
	if err := sys.RegisterTable(TableMapping{
		Table: "records", PatientCol: "patient",
		Categories: map[string]string{"gender": "gender"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Query("bill", "clerk", "billing", `SELECT gender FROM records`); err != nil {
		t.Errorf("generalized rule not enforced: %v", err)
	}
}

func TestSystemPatternEvidenceAndReport(t *testing.T) {
	sys := hospital(t)
	for _, u := range []string{"mark", "tim", "bob", "mark", "tim"} {
		if _, _, err := sys.BreakGlass(u, "nurse", "registration", "backlog",
			`SELECT referral FROM records`); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := sys.PatternEvidence()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Support != 5 || len(evs[0].UserCounts) != 3 {
		t.Fatalf("evidence = %+v", evs)
	}
	if s := evs[0].Suspicion(); s <= 0 || s >= 1 {
		t.Errorf("suspicion = %v", s)
	}
	var sb strings.Builder
	if err := sys.WriteReport(&sb, "Facade report"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Facade report", "Policy coverage", "Audit statistics"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
	if sys.Enforcer() == nil {
		t.Error("Enforcer accessor nil")
	}
}

// TestReportNumbersKeptRounds: past 2*HistoryKeep rounds the history
// drops its oldest rounds; the report numbers the kept rounds by their
// position among all rounds and says the earlier ones are omitted.
func TestReportNumbersKeptRounds(t *testing.T) {
	sys := hospital(t)
	if _, _, err := sys.BreakGlass("mark", "nurse", "registration", "backlog",
		`SELECT referral FROM records`); err != nil {
		t.Fatal(err)
	}
	investigate := ReviewerFunc(func(Pattern) Decision { return Investigate })
	total := 2*core.HistoryKeep + 3
	for i := 0; i < total; i++ {
		if _, err := sys.RunRefinement(investigate); err != nil {
			t.Fatal(err)
		}
	}
	h := sys.RefinementHistory()
	if len(h) > 2*core.HistoryKeep || h[len(h)-1].Number != total || h[0].Number != total-len(h)+1 {
		t.Fatalf("history of %d rounds numbered %d..%d after %d rounds",
			len(h), h[0].Number, h[len(h)-1].Number, total)
	}
	var sb strings.Builder
	if err := sys.WriteReport(&sb, "Long-running report"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("Rounds 1 to %d are omitted", h[0].Number-1),
		fmt.Sprintf("| %d |", h[0].Number),
		fmt.Sprintf("| %d |", total),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFacadeConstructorsAndEvidenceHelpers(t *testing.T) {
	if len(NewVocabulary().Attributes()) != 0 {
		t.Error("NewVocabulary not empty")
	}
	v, err := ParseVocabulary(strings.NewReader("data\n  x\n"))
	if err != nil || !v.Hierarchy("data").Contains("x") {
		t.Errorf("ParseVocabulary: %v", err)
	}
	if NewPolicy("P").Len() != 0 {
		t.Error("NewPolicy not empty")
	}
	r := MustRule(T("data", "referral"), T("purpose", "registration"), T("authorized", "nurse"))
	entries := scenario.Table1()
	practice := entries[2:3] // t3 only
	ev := GatherEvidence(practice, r)
	if ev.Support != 1 {
		t.Errorf("evidence = %+v", ev)
	}
	reviewer := SuspicionReviewer(practice, 0.1, 2)
	if d := reviewer.Review(Pattern{Rule: r}); d != Investigate {
		t.Errorf("single-user pattern decision = %v", d)
	}
	res, err := Generalize(scenario.PolicyStore(), SampleVocabulary())
	if err != nil || res.RulesAfter == 0 {
		t.Errorf("Generalize: %v %v", res, err)
	}
	l := NewLog("s")
	if l.Site() != "s" {
		t.Error("NewLog site")
	}
	if NewFederation(l).Sources() != 1 {
		t.Error("NewFederation sources")
	}
}

// TestCoverageKeepsSharedRange: System.Coverage lists only its
// per-call audit policy, so the process-wide symbolic range cache
// keeps the policy store's compiled range across many officer reads
// instead of recompiling it on each.
func TestCoverageKeepsSharedRange(t *testing.T) {
	sys := New(Config{Policy: scenario.PolicyStore()})
	if err := sys.AuditLog().Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	ps, v := sys.PolicyStore(), sys.Vocabulary()
	want := policy.SharedSym.Range(ps, v)
	for i := 0; i < 300; i++ {
		if _, err := sys.Coverage(); err != nil {
			t.Fatal(err)
		}
	}
	if got := policy.SharedSym.Range(ps, v); got != want {
		t.Fatal("policy store range recompiled after 300 Coverage calls")
	}
}

// TestOfficerReadsMatchSnapshotOracle: the index-served Coverage and
// PatternEvidence equal the entry-slice computations over a snapshot.
func TestOfficerReadsMatchSnapshotOracle(t *testing.T) {
	sys := New(Config{Policy: scenario.PolicyStore()})
	entries := scenario.Table1()
	for i := range entries {
		// Evening rows in a UTC+10 zone: off-hours on the clinic clock.
		e := entries[i]
		e.Time = e.Time.Add(24 * time.Hour).In(time.FixedZone("", 10*3600))
		entries = append(entries, e)
	}
	if err := sys.AuditLog().Append(entries...); err != nil {
		t.Fatal(err)
	}
	ps, v := sys.PolicyStore(), sys.Vocabulary()
	snap := sys.AuditLog().Snapshot()
	wantCov, err := CoverageDetail(ps, EntriesToPolicy("AL", snap), v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sys.Coverage(); err != nil || !reflect.DeepEqual(got, wantCov) {
		t.Fatalf("Coverage = %+v (err %v), snapshot oracle %+v", got, err, wantCov)
	}
	pats, err := Refine(ps, snap, v, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := core.AnnotatePatterns(core.Filter(snap), pats)
	got, err := sys.PatternEvidence()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("PatternEvidence = %v (err %v), snapshot oracle %v", got, err, want)
	}
	if len(got) == 0 || got[0].OffHoursFraction == 0 {
		t.Fatalf("expected off-hours evidence, got %v", got)
	}
}

// TestOfficerReadsConcurrent runs the officer's reads, which share the
// audit log's published group view, from several goroutines while a
// writer appends, then checks the reads against the snapshot oracle
// once the writer stops.
func TestOfficerReadsConcurrent(t *testing.T) {
	sys := New(Config{Policy: scenario.PolicyStore()})
	if err := sys.AuditLog().Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := sys.AuditLog().Append(scenario.Table1()...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reads := []func() error{
		func() error { _, err := sys.Coverage(); return err },
		func() error { _, err := sys.EntryCoverage(); return err },
		func() error { _, err := sys.PatternEvidence(); return err },
		func() error {
			_, err := sys.RunRefinement(core.ReviewerFunc(func(core.Pattern) core.Decision { return core.Investigate }))
			return err
		},
	}
	for _, read := range reads {
		wg.Add(1)
		go func(read func() error) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}(read)
	}
	wg.Wait()
	ps, v := sys.PolicyStore(), sys.Vocabulary()
	snap := sys.AuditLog().Snapshot()
	wantCov, err := CoverageDetail(ps, EntriesToPolicy("AL", snap), v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sys.Coverage(); err != nil || !reflect.DeepEqual(got, wantCov) {
		t.Fatalf("Coverage = %+v (err %v), snapshot oracle %+v", got, err, wantCov)
	}
	wantRows, err := core.EntryCoverage(ps, snap, v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sys.EntryCoverage(); err != nil || got.Total != wantRows.Total || got.Covered != wantRows.Covered {
		t.Fatalf("EntryCoverage = %+v (err %v), snapshot oracle %+v", got, err, wantRows)
	}
	pats, err := Refine(ps, snap, v, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sys.PatternEvidence(); err != nil || !reflect.DeepEqual(got, core.AnnotatePatterns(core.Filter(snap), pats)) {
		t.Fatalf("PatternEvidence = %v (err %v), snapshot oracle differs", got, err)
	}
}

// TestRunRefinementConcurrent runs refinement rounds on one System
// from two goroutines (as concurrent POST /refine handlers do) while a
// third reads the history. Rounds must serialize: the history numbers
// every round once, and each discovered rule is decided (adopted or
// rejected) by exactly one round, since later rounds prune adopted
// rules and skip rejected ones.
func TestRunRefinementConcurrent(t *testing.T) {
	sys := New(Config{Policy: scenario.PolicyStore()})
	if err := sys.AuditLog().Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	const perWorker = 10
	reviewers := []Reviewer{
		AdoptAll,
		core.ReviewerFunc(func(core.Pattern) core.Decision { return core.Reject }),
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, r := range sys.RefinementHistory() {
				if i > 0 && r.Number == 0 {
					t.Error("history holds an unnumbered round")
					return
				}
			}
		}
	}()
	var workers sync.WaitGroup
	for _, rev := range reviewers {
		workers.Add(1)
		go func(rev Reviewer) {
			defer workers.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := sys.RunRefinement(rev); err != nil {
					t.Error(err)
					return
				}
			}
		}(rev)
	}
	workers.Wait()
	close(stop)
	wg.Wait()

	hist := sys.RefinementHistory()
	if len(hist) != perWorker*len(reviewers) {
		t.Fatalf("history holds %d rounds, want %d", len(hist), perWorker*len(reviewers))
	}
	decided := map[string]int{}
	for i, r := range hist {
		if r.Number != i+1 {
			t.Fatalf("round %d numbered %d", i, r.Number)
		}
		for _, rule := range r.Adopted {
			decided[rule.Key()]++
		}
		for _, p := range r.Rejected {
			decided[p.Rule.Key()]++
		}
	}
	if len(decided) == 0 {
		t.Fatal("no round decided a pattern; the test exercises nothing")
	}
	for k, n := range decided {
		if n != 1 {
			t.Errorf("rule %s decided by %d rounds, want 1", k, n)
		}
	}
	// The returned history is a copy: a later round leaves it alone.
	if _, err := sys.RunRefinement(AdoptAll); err != nil {
		t.Fatal(err)
	}
	if len(hist) != perWorker*len(reviewers) || len(sys.RefinementHistory()) != len(hist)+1 {
		t.Fatalf("history copy changed under a later round")
	}
}
