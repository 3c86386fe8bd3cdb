package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/scenario"
)

// The officer's reads (AuditCoverage, AnnotateGroups, GroupEvidence)
// are served from the audit log's incremental index. The tests here
// pin them to the entry-slice oracles over a snapshot of the same log:
// Coverage(ps, audit.ToPolicy(snapshot)), AnnotatePatterns and
// GatherEvidence over Filter(snapshot).

var oracleZones = []*time.Location{
	time.UTC,
	time.FixedZone("", 2*3600),
	time.FixedZone("", -5*3600),
	time.FixedZone("", 5*3600+1800),
}

// oracleEntries generates n audit rows over about ten days whose raw
// values differ in case and padding but normalize to a few keys, with
// timestamps in several zone offsets.
func oracleEntries(seed int64, n int) []audit.Entry {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]audit.Entry, n)
	for i := range out {
		e := audit.Entry{
			Time:       base.Add(time.Duration(rng.Int63n(int64(10 * 24 * time.Hour)))).In(oracleZones[rng.Intn(len(oracleZones))]),
			Op:         audit.Allow,
			User:       pick("Mark", "mark", "tim", "Bob", " bob", "sarah"),
			Data:       pick("Referral", "referral", "prescription", "Psychiatry", "address"),
			Purpose:    pick("treatment", "Registration", "registration", "billing"),
			Authorized: pick("nurse", "Nurse", "clerk", "doctor"),
			Status:     audit.Exception,
		}
		if rng.Intn(5) == 0 {
			e.Op = audit.Deny
		}
		if rng.Intn(3) == 0 {
			e.Status = audit.Regular
		}
		out[i] = e
	}
	return out
}

// oracleRules are the rules scored besides the mined patterns: a
// two-term partial rule, a one-term rule, a rule spelled in another
// case than any row, and a rule no row matches.
func oracleRules() []policy.Rule {
	return []policy.Rule{
		policy.MustRule(policy.T("data", "referral"), policy.T("authorized", "nurse")),
		policy.MustRule(policy.T("purpose", "registration")),
		policy.MustRule(policy.T("data", "PSYCHIATRY"), policy.T("purpose", "Treatment"), policy.T("authorized", "DOCTOR")),
		policy.MustRule(policy.T("data", "counseling"), policy.T("purpose", "research"), policy.T("authorized", "clerk")),
	}
}

// checkIndexMatchesOracle compares every index-served read of l with
// its snapshot oracle. The log must be quiescent.
func checkIndexMatchesOracle(t *testing.T, stage string, l *audit.Log) {
	t.Helper()
	ps, v := scenario.PolicyStore(), scenario.Vocabulary()
	snap := l.Snapshot()
	groups := l.Groups()

	if got, want := audit.GroupsPolicy("AL", groups), audit.ToPolicy("AL", snap); !reflect.DeepEqual(got.Rules(), want.Rules()) {
		t.Fatalf("%s: GroupsPolicy rules\n %v\nToPolicy(snapshot)\n %v", stage, got.Rules(), want.Rules())
	}
	gotCov, err := AuditCoverage(ps, groups, v)
	if err != nil {
		t.Fatal(err)
	}
	wantCov, err := Coverage(ps, audit.ToPolicy("AL", snap), v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCov, wantCov) {
		t.Fatalf("%s: AuditCoverage\n %+v\nCoverage over snapshot\n %+v", stage, gotCov, wantCov)
	}

	patterns, err := PatternsFromGroups(groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if patterns, err = Prune(patterns, ps, v); err != nil {
		t.Fatal(err)
	}
	for _, r := range oracleRules() {
		patterns = append(patterns, Pattern{Rule: r})
	}
	practice := Filter(snap)
	if got, want := AnnotateGroups(groups, patterns), AnnotatePatterns(practice, patterns); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AnnotateGroups\n %v\nAnnotatePatterns over snapshot\n %v", stage, got, want)
	}
	for _, p := range patterns {
		if got, want := GroupEvidence(groups, p.Rule), GatherEvidence(practice, p.Rule); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: GroupEvidence %+v, GatherEvidence %+v", stage, got, want)
		}
	}
}

func TestIndexReadsMatchSnapshotAcrossEpochs(t *testing.T) {
	l := audit.NewLog("s")
	if err := l.Append(oracleEntries(1, 2000)...); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesOracle(t, "after append", l)
	mid := time.Date(2007, 3, 4, 0, 0, 0, 0, time.UTC)
	if l.Expire(mid, mid.Add(-24*time.Hour)) == 0 {
		t.Fatal("Expire dropped nothing")
	}
	checkIndexMatchesOracle(t, "after expire", l)
	if len(l.Rotate(mid.Add(48*time.Hour))) == 0 {
		t.Fatal("Rotate returned nothing")
	}
	checkIndexMatchesOracle(t, "after rotate", l)
	l.Reset()
	checkIndexMatchesOracle(t, "after reset", l)
	if err := l.Append(oracleEntries(2, 500)...); err != nil {
		t.Fatal(err)
	}
	checkIndexMatchesOracle(t, "after reset and append", l)
}

// TestIndexReadsMatchSnapshotConcurrent appends from several
// goroutines, to a plain log and to a durable one (whose sink batches
// take a different append path), while a reader serves the index
// reads, then compares with the oracle once the appends quiesce. Run
// under -race.
func TestIndexReadsMatchSnapshotConcurrent(t *testing.T) {
	t.Run("plain", func(t *testing.T) { concurrentIndexReads(t, audit.NewLog("s")) })
	t.Run("durable", func(t *testing.T) {
		d, _, err := audit.OpenDurable("s", t.TempDir(), audit.DurableOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		concurrentIndexReads(t, d.Log())
	})
}

func concurrentIndexReads(t *testing.T, l *audit.Log) {
	ps, v := scenario.PolicyStore(), scenario.Vocabulary()
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			groups := l.Groups()
			if _, err := AuditCoverage(ps, groups, v); err != nil {
				t.Error(err)
				return
			}
			AnnotateGroups(groups, []Pattern{{Rule: oracleRules()[0]}})
			l.PracticeShards()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i, e := range oracleEntries(seed, 600) {
				var err error
				if i%3 == 0 {
					err = l.Append(e)
				} else {
					err = l.Append(e, e)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(10 + w))
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	checkIndexMatchesOracle(t, "after concurrent appends", l)
}

// TestIndexReadsMatchSnapshotAfterReopen: durable recovery refolds the
// index from the checkpoint and the WAL tail.
func TestIndexReadsMatchSnapshotAfterReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "audit")
	d, _, err := audit.OpenDurable("s", dir, audit.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := oracleEntries(3, 1500)
	if err := d.Append(entries[:1000]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[1000:]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, _, err = audit.OpenDurable("s", dir, audit.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Log().Len(); got != len(entries) {
		t.Fatalf("recovered %d entries, want %d", got, len(entries))
	}
	checkIndexMatchesOracle(t, "after reopen", d.Log())
}

// TestAuditCoverageGapOrder: P_AL's rules, and with them the coverage
// gaps, follow the order in which the log first saw each triple, not
// the index's sorted group order.
func TestAuditCoverageGapOrder(t *testing.T) {
	at := time.Date(2007, 3, 1, 9, 0, 0, 0, time.UTC)
	row := func(data, purpose, role string) audit.Entry {
		return audit.Entry{Time: at, Op: audit.Allow, User: "u", Data: data, Purpose: purpose,
			Authorized: role, Status: audit.Exception}
	}
	l := audit.NewLog("s")
	if err := l.Append(
		row("counseling", "billing", "doctor"),
		row("address", "research", "nurse"),
		row("referral", "treatment", "clerk"),
		row("Referral", "Treatment", "Clerk"),
	); err != nil {
		t.Fatal(err)
	}
	rep, err := AuditCoverage(scenario.PolicyStore(), l.Groups(), scenario.Vocabulary())
	if err != nil {
		t.Fatal(err)
	}
	var gaps []string
	for _, g := range rep.Gaps {
		gaps = append(gaps, g.Rule.Compact())
	}
	want := []string{
		"authorized=doctor & data=counseling & purpose=billing",
		"authorized=nurse & data=address & purpose=research",
		"authorized=clerk & data=referral & purpose=treatment",
	}
	if fmt.Sprint(gaps) != fmt.Sprint(want) {
		t.Fatalf("gaps %q, want %q", gaps, want)
	}
	checkIndexMatchesOracle(t, "gap order", l)
}

// GroupEvidence computes GatherEvidence(Filter(snapshot), rule) from a
// log's index groups, without the snapshot. A rule matches a group
// when each of its terms equals, after normalization, the group's
// value for that attribute; a partial rule aggregates over every group
// it matches. Rules over attributes outside (data, purpose,
// authorized) match no group.
func GroupEvidence(groups []audit.Group, rule policy.Rule) Evidence {
	return groupEvidence(groups, groupTerms(groups), rule)
}
