package prima

// The benchmark harness regenerates every quantitative artifact of
// the paper plus the synthetic evaluation DESIGN.md derives from the
// architecture. One benchmark per experiment row (E1–E9); see
// EXPERIMENTS.md for the recorded paper-vs-measured outcomes.
//
//	go test -bench=. -benchmem .

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/hdb"
	"repro/internal/lint"
	"repro/internal/minidb"
	"repro/internal/mining"
	"repro/internal/netfed"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/vocab"
	"repro/internal/workflow"
)

// ---- E1: vocabulary range expansion (Fig. 1 / Definitions 3, 8) ----

// syntheticVocab builds a data hierarchy with the given branching and
// depth (leaves = branch^depth).
func syntheticVocab(branch, depth int) *vocab.Vocabulary {
	v := vocab.New()
	h := v.MustAttribute("data")
	h.MustAdd("", "root")
	frontier := []string{"root"}
	id := 0
	for d := 0; d < depth; d++ {
		var next []string
		for _, p := range frontier {
			for b := 0; b < branch; b++ {
				id++
				name := fmt.Sprintf("n%d", id)
				h.MustAdd(p, name)
				next = append(next, name)
			}
		}
		frontier = next
	}
	v.MustAttribute("purpose").MustAdd("", "treatment")
	v.MustAttribute("authorized").MustAdd("", "nurse")
	return v
}

func BenchmarkE1_RangeExpansion(b *testing.B) {
	for _, cfg := range []struct{ branch, depth int }{
		{2, 4}, {4, 4}, {4, 6}, {8, 4},
	} {
		v := syntheticVocab(cfg.branch, cfg.depth)
		p := policy.FromRules("PS", policy.MustRule(
			policy.T("data", "root"),
			policy.T("purpose", "treatment"),
			policy.T("authorized", "nurse"),
		))
		name := fmt.Sprintf("branch=%d/depth=%d", cfg.branch, cfg.depth)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rg, err := policy.NewRange(p, v, 0)
				if err != nil {
					b.Fatal(err)
				}
				if rg.Len() == 0 {
					b.Fatal("empty range")
				}
			}
		})
	}
}

// ---- E2: Figure 3 coverage (50 %) ----

func BenchmarkE2_Figure3Coverage(b *testing.B) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	al := scenario.Figure3AuditPolicy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := core.ComputeCoverage(ps, al, v)
		if err != nil {
			b.Fatal(err)
		}
		if c != 0.5 {
			b.Fatalf("coverage = %v, want 0.5 (paper Figure 3)", c)
		}
	}
}

// ---- E3: Table 1 refinement (30 % -> pattern -> 80 %) ----

func BenchmarkE3_Table1Refinement(b *testing.B) {
	v := scenario.Vocabulary()
	entries := scenario.Table1()
	for _, ex := range []struct {
		name string
		x    core.PatternExtractor
	}{
		{"sql", core.SQLExtractor{}},
		{"apriori", mining.Extractor{}},
	} {
		b.Run(ex.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ps := scenario.PolicyStore()
				pats, err := core.Refinement(ps, entries, v, core.Options{Extractor: ex.x})
				if err != nil {
					b.Fatal(err)
				}
				if len(pats) != 1 || pats[0].Support != 5 {
					b.Fatalf("patterns = %v, want the §5 result", pats)
				}
			}
		})
	}
}

// ---- E4: coverage vs refinement epochs (quantified Figure 2) ----

func BenchmarkE4_RefinementEpochs(b *testing.B) {
	b.ReportAllocs()
	// Expected traffic volume over the whole horizon, derivable from
	// the config the way a deployment would size its ingest capacity.
	sizing := workflow.DefaultHospital(42)
	perDay := sizing.DocumentedPerDay
	for _, bh := range append(append([]workflow.Behavior{}, sizing.Informal...), sizing.Violations...) {
		perDay += bh.PerDay
	}
	hint := int(perDay * 4 * 10 * 5 / 4)
	var buf []audit.Entry
	// The log is the long-lived piece of the streaming pipeline:
	// allocate and size it once, recycle it per iteration with Reset
	// (which keeps shard capacity), and measure the steady-state cost
	// of ingesting and refining four epochs.
	log := audit.NewLog("ward")
	log.Grow(hint)
	for i := 0; i < b.N; i++ {
		log.Reset()
		cfg := workflow.DefaultHospital(42)
		sim, err := workflow.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The streaming pipeline: simulated traffic is ingested into
		// the sharded log and each epoch's refinement round is served
		// from the incremental index in O(groups) rather than
		// rescanning the snapshot.
		sess := core.NewStreamSession(log, cfg.Policy, cfg.Vocab, core.Options{})
		var first, last float64
		for epoch := 0; epoch < 4; epoch++ {
			entries, err := sim.RunInto(buf[:0], epoch*10, 10)
			if err != nil {
				b.Fatal(err)
			}
			buf = entries
			if err := log.Append(entries...); err != nil {
				b.Fatal(err)
			}
			round, err := sess.Run(core.AdoptAll)
			if err != nil {
				b.Fatal(err)
			}
			if epoch == 0 {
				first = round.CoverageBefore
			}
			last = round.CoverageBefore
		}
		if last <= first {
			b.Fatalf("coverage did not rise: %v -> %v", first, last)
		}
	}
}

// ---- E5: threshold sensitivity (precision/recall vs f) ----

func BenchmarkE5_ThresholdSweep(b *testing.B) {
	cfg := workflow.DefaultHospital(42)
	sim, err := workflow.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	entries, err := sim.Run(0, 30)
	if err != nil {
		b.Fatal(err)
	}
	informal, violations := sim.GroundTruth()
	// Informal supports over 30 days cluster around 120–240
	// (rates 4–8/day), so the sweep spans well below and above.
	for _, f := range []int{2, 5, 20, 200, 500} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pats, err := core.Refinement(cfg.Policy, entries, cfg.Vocab,
					core.Options{MinSupport: f})
				if err != nil {
					b.Fatal(err)
				}
				var found []policy.Rule
				for _, p := range pats {
					found = append(found, p.Rule)
				}
				sc := workflow.Evaluate(found, informal, violations)
				// Shape check: recall falls as f rises past the
				// monthly support of the practices (120–240 here).
				if f <= 5 && sc.Recall < 1 {
					b.Fatalf("f=%d: recall %v", f, sc.Recall)
				}
				if f == 200 && sc.Recall >= 1 {
					b.Fatalf("f=%d: recall did not degrade (%v)", f, sc.Recall)
				}
				if f >= 500 && sc.Recall > 0 {
					b.Fatalf("f=%d: recall unexpectedly high (%v)", f, sc.Recall)
				}
			}
		})
	}
}

// ---- E6: Apriori vs plain SQL extraction (§5 proposal) ----

func e6Entries() []audit.Entry {
	// A (data, role) correlation smeared over many purposes: below
	// the per-tuple threshold, above the pair threshold.
	base := time.Date(2007, 4, 1, 8, 0, 0, 0, time.UTC)
	purposes := []string{"treatment", "registration", "billing", "research"}
	users := []string{"a", "b", "c"}
	var out []audit.Entry
	for i := 0; i < 12; i++ {
		out = append(out, audit.Entry{
			Time: base.Add(time.Duration(i) * time.Minute), Op: audit.Allow,
			User: users[i%len(users)], Data: "lab_result",
			Purpose: purposes[i%len(purposes)], Authorized: "lab_tech",
			Status: audit.Exception,
		})
	}
	return out
}

func BenchmarkE6_AprioriVsSQL(b *testing.B) {
	entries := e6Entries()
	b.Run("sql-misses", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pats, err := core.ExtractPatterns(entries, core.Options{MinSupport: 5})
			if err != nil {
				b.Fatal(err)
			}
			if len(pats) != 0 {
				b.Fatalf("exact SQL should miss the smeared pattern: %v", pats)
			}
		}
	})
	b.Run("apriori-finds", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			corrs, err := mining.Correlations(entries, nil, 5)
			if err != nil {
				b.Fatal(err)
			}
			found := false
			for _, c := range corrs {
				if c.Items.Key() == "authorized=lab_tech&data=lab_result" {
					found = true
				}
			}
			if !found {
				b.Fatal("Apriori missed the pair correlation")
			}
		}
	})
}

// ---- E7: coverage scaling (Algorithm 1 cost) ----

func BenchmarkE7_CoverageScaling(b *testing.B) {
	v := scenario.Vocabulary()
	dataVals := v.Hierarchy("data").Leaves()
	purposeVals := v.Hierarchy("purpose").Leaves()
	roleVals := v.Hierarchy("authorized").Leaves()
	mkPolicy := func(name string, n int) *policy.Policy {
		p := policy.New(name)
		for i := 0; i < n; i++ {
			p.Add(policy.MustRule(
				policy.T("data", dataVals[i%len(dataVals)]),
				policy.T("purpose", purposeVals[(i/len(dataVals))%len(purposeVals)]),
				policy.T("authorized", roleVals[(i/7)%len(roleVals)]),
			))
		}
		return p
	}
	for _, n := range []int{10, 100, 1000, 10000} {
		// Rules deduplicate over a finite vocabulary; scale by rows
		// instead: the audit side is a log snapshot converted to
		// rules, so benchmark EntryCoverage over n rows.
		entries := make([]audit.Entry, n)
		base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
		for i := range entries {
			entries[i] = audit.Entry{
				Time: base.Add(time.Duration(i) * time.Second), Op: audit.Allow,
				User: fmt.Sprintf("u%d", i%97),
				Data: dataVals[i%len(dataVals)], Purpose: purposeVals[i%len(purposeVals)],
				Authorized: roleVals[i%len(roleVals)], Status: audit.Exception,
			}
		}
		ps := mkPolicy("PS", 50)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EntryCoverage(ps, entries, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E8: Active Enforcement overhead (Fig. 5 "minimal impact") ----

func benchSystem(b *testing.B) *System {
	b.Helper()
	sys := New(Config{Policy: scenario.PolicyStore()})
	sys.DB().MustExec(`CREATE TABLE records (patient TEXT, referral TEXT, psychiatry TEXT)`)
	for i := 0; i < 64; i++ {
		sys.DB().MustExec(fmt.Sprintf(
			`INSERT INTO records VALUES ('p%d', 'consult %d', 'note %d')`, i, i, i))
	}
	if err := sys.RegisterTable(TableMapping{
		Table: "records", PatientCol: "patient",
		Categories: map[string]string{"referral": "referral", "psychiatry": "psychiatry"},
	}); err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkE8_EnforcementOverhead(b *testing.B) {
	const sql = `SELECT patient, referral FROM records WHERE patient <> 'p0'`
	b.Run("raw", func(b *testing.B) {
		sys := benchSystem(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.DB().Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enforced", func(b *testing.B) {
		sys := benchSystem(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enforced+consent", func(b *testing.B) {
		sys := benchSystem(b)
		if err := sys.SetConsent("p1", "clinical", "", OptOut, time.Now()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("breakglass", func(b *testing.B) {
		sys := benchSystem(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.BreakGlass("tim", "nurse", "registration", "bench", sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: audit federation throughput ----

func BenchmarkE9_Federation(b *testing.B) {
	const total = 4096
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	for _, sites := range []int{1, 4, 16} {
		logs := make([]*audit.Log, sites)
		for s := range logs {
			logs[s] = audit.NewLog(fmt.Sprintf("site-%d", s))
		}
		for i := 0; i < total; i++ {
			e := audit.Entry{
				Time: base.Add(time.Duration(i) * time.Second), Op: audit.Allow,
				User: fmt.Sprintf("u%d", i%31), Data: "referral",
				Purpose: "registration", Authorized: "nurse", Status: audit.Exception,
			}
			if err := logs[i%sites].Append(e); err != nil {
				b.Fatal(err)
			}
		}
		fed := audit.NewFederation(logs...)
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := fed.Consolidate()
				if len(res.Entries) != total {
					b.Fatalf("consolidated %d, want %d", len(res.Entries), total)
				}
			}
		})
	}
}

// ---- Ablations: design choices called out in DESIGN.md ----

// BenchmarkA1_IndexAblation measures the minidb equality-index fast
// path against a full scan at several table sizes.
func BenchmarkA1_IndexAblation(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		for _, indexed := range []bool{false, true} {
			db := minidb.NewDatabase()
			db.MustExec(`CREATE TABLE t (id INT, usr TEXT, n INT)`)
			for i := 0; i < rows; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'u%d', %d)`, i, i%97, i))
			}
			if indexed {
				db.MustExec(`CREATE INDEX usr_ix ON t (usr)`)
			}
			name := fmt.Sprintf("rows=%d/indexed=%v", rows, indexed)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := db.Exec(`SELECT id FROM t WHERE usr = 'u13'`)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no rows")
					}
				}
			})
		}
	}
}

// BenchmarkA2_DecisionSnapshot measures the enforcer's decision
// snapshot: a stable policy reuses the published snapshot, while
// mutating the policy between queries forces a rebuild (and a fresh
// symbolic range) every time.
func BenchmarkA2_DecisionSnapshot(b *testing.B) {
	const sql = `SELECT referral FROM records`
	b.Run("cache-hit", func(b *testing.B) {
		sys := benchSystem(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-miss", func(b *testing.B) {
		sys := benchSystem(b)
		flip := policy.MustRule(
			policy.T("data", "payment_history"),
			policy.T("purpose", "billing"),
			policy.T("authorized", "manager"),
		)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				sys.PolicyStore().Add(flip)
			} else {
				sys.PolicyStore().Remove(flip)
			}
			if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA3_Generalization measures the policy-compression pass and
// the downstream effect of a smaller store: coverage computation over
// the generalized policy versus the raw adopted-leaf policy.
func BenchmarkA3_Generalization(b *testing.B) {
	v := scenario.Vocabulary()
	// A store that adopted every ground rule one by one.
	leaves := policy.New("PS")
	for _, d := range v.Hierarchy("data").Leaves() {
		for _, p := range v.Hierarchy("purpose").Leaves() {
			for _, a := range v.Hierarchy("authorized").Leaves() {
				leaves.Add(policy.MustRule(
					policy.T("data", d), policy.T("purpose", p), policy.T("authorized", a)))
			}
		}
	}
	res, err := core.Generalize(leaves, v)
	if err != nil {
		b.Fatal(err)
	}
	if res.RulesAfter >= res.RulesBefore {
		b.Fatalf("generalization had no effect: %+v", res)
	}
	al := scenario.Figure3AuditPolicy()
	b.Run("pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Generalize(leaves, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coverage/raw-leaves", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ComputeCoverage(leaves, al, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coverage/generalized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.ComputeCoverage(res.Policy, al, v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- A4: the privacy officer's reads, index vs snapshot ----

// BenchmarkA4_OfficerReads measures one review round's coverage and
// evidence reads over a simulated log of more than 100k entries:
// served from the incremental index (System.Coverage +
// System.PatternEvidence) against the snapshot path they replaced
// (ToPolicy(Snapshot()) + core.Coverage, then index-fed patterns
// annotated by AnnotatePatterns over the filtered snapshot).
func BenchmarkA4_OfficerReads(b *testing.B) {
	cfg := workflow.LargeHospital(3, 50)
	sim, err := workflow.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	entries, err := sim.Run(0, 55)
	if err != nil {
		b.Fatal(err)
	}
	if len(entries) < 100_000 {
		b.Fatalf("simulated log holds %d entries, want at least 100k", len(entries))
	}
	sys := New(Config{Policy: cfg.Policy, Vocabulary: cfg.Vocab})
	if err := sys.AuditLog().Append(entries...); err != nil {
		b.Fatal(err)
	}
	ps, v, l := sys.PolicyStore(), sys.Vocabulary(), sys.AuditLog()
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Coverage(); err != nil {
				b.Fatal(err)
			}
			if _, err := sys.PatternEvidence(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Coverage(ps, audit.ToPolicy("AL", l.Snapshot()), v); err != nil {
				b.Fatal(err)
			}
			pats, err := core.RefineFromLog(ps, l, v, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			core.AnnotatePatterns(core.Filter(l.Snapshot()), pats)
		}
	})
}

// ---- E10: organization scale (multi-department refinement) ----

func BenchmarkE10_OrganizationScale(b *testing.B) {
	for _, depts := range []int{1, 4, 16} {
		cfg := workflow.LargeHospital(42, depts)
		sim, err := workflow.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		entries, err := sim.Run(0, 15)
		if err != nil {
			b.Fatal(err)
		}
		informal, violations := sim.GroundTruth()
		b.Run(fmt.Sprintf("departments=%d", depts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pats, err := core.Refinement(cfg.Policy, entries, cfg.Vocab,
					core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				var found []policy.Rule
				for _, p := range pats {
					found = append(found, p.Rule)
				}
				sc := workflow.Evaluate(found, informal, violations)
				if sc.Recall != 1 {
					b.Fatalf("departments=%d: recall %v", depts, sc.Recall)
				}
				// The documented scale caveat: with >1 department the
				// correlated single-user violations aggregate into a
				// false positive (see EXPERIMENTS.md).
				if depts == 1 && sc.FalsePositives != 0 {
					b.Fatalf("departments=1: false positives %d", sc.FalsePositives)
				}
			}
		})
	}
}

// ---- E11: suspicion-guided review vs naive adoption ----

// e11Entries builds a log where the distinct-user condition alone is
// fooled: two colluding users browse psychiatry at night, alongside a
// genuine multi-user daytime practice.
func e11Entries() []audit.Entry {
	base := time.Date(2007, 3, 5, 0, 0, 0, 0, time.UTC)
	var out []audit.Entry
	for i := 0; i < 12; i++ {
		out = append(out, audit.Entry{
			Time: base.Add(time.Duration(i)*24*time.Hour + 10*time.Hour),
			Op:   audit.Allow, User: []string{"a", "b", "c", "d"}[i%4],
			Data: "referral", Purpose: "registration", Authorized: "nurse",
			Status: audit.Exception,
		})
	}
	for i := 0; i < 8; i++ {
		out = append(out, audit.Entry{
			Time: base.Add(time.Duration(i)*24*time.Hour + 23*time.Hour),
			Op:   audit.Allow, User: []string{"eve", "mallory"}[i%2],
			Data: "psychiatry", Purpose: "research", Authorized: "clerk",
			Status: audit.Exception,
		})
	}
	return out
}

func BenchmarkE11_SuspicionReview(b *testing.B) {
	v := scenario.Vocabulary()
	entries := e11Entries()
	informal := []policy.Rule{policy.MustRule(
		policy.T("data", "referral"), policy.T("purpose", "registration"), policy.T("authorized", "nurse"))}
	violations := []policy.Rule{policy.MustRule(
		policy.T("data", "psychiatry"), policy.T("purpose", "research"), policy.T("authorized", "clerk"))}
	run := func(b *testing.B, reviewer core.Reviewer, wantPrecision float64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess := core.NewSession(scenario.PolicyStore(), v, core.Options{})
			round, err := sess.Run(entries, reviewer)
			if err != nil {
				b.Fatal(err)
			}
			sc := workflow.Evaluate(round.Adopted, informal, violations)
			if sc.Recall != 1 {
				b.Fatalf("recall = %v", sc.Recall)
			}
			if sc.Precision != wantPrecision {
				b.Fatalf("precision = %v, want %v", sc.Precision, wantPrecision)
			}
		}
	}
	b.Run("naive-adopt-all", func(b *testing.B) {
		// The colluding night-time violation passes COUNT(DISTINCT
		// user) > 1 and is wrongly adopted: precision 0.5.
		run(b, core.AdoptAll, 0.5)
	})
	b.Run("suspicion-reviewer", func(b *testing.B) {
		run(b, core.SuspicionReviewer(core.Filter(entries), 0.5, 0.9), 1.0)
	})
}

// ---- E10b: audit ingestion throughput (sharded log + async sink) ----

// ingestResetEvery bounds benchmark memory: every ingestion variant
// discards its accumulated entries at the same cadence, so retention
// cost is identical across sub-benchmarks and only the append path
// differs.
const ingestResetEvery = 1 << 18

// mutexLog replicates the pre-streaming audit store byte for byte: a
// single mutex guarding the entry slice, with each entry validated
// and JSON-encoded to the sink by a freshly allocated encoder inside
// the critical section — the design the sharded log replaces.
type mutexLog struct {
	mu      sync.Mutex
	entries []audit.Entry
	w       io.Writer
}

func (l *mutexLog) append(e audit.Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	l.entries = append(l.entries, e)
	if l.w != nil {
		_ = json.NewEncoder(l.w).Encode(e)
	}
	if len(l.entries) >= ingestResetEvery {
		l.entries = l.entries[:0]
	}
	l.mu.Unlock()
	return nil
}

// appendBatch mirrors the seed's variadic Append exactly: validate
// everything, then one lock, per-entry site-stamp-and-encode inside
// the critical section.
func (l *mutexLog) appendBatch(entries []audit.Entry) error {
	for i := range entries {
		if err := entries[i].Validate(); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		l.entries = append(l.entries, e)
		if l.w != nil {
			_ = json.NewEncoder(l.w).Encode(e)
		}
	}
	if len(l.entries) >= ingestResetEvery {
		l.entries = l.entries[:0]
	}
	return nil
}

// rewindWriter is a durable sink target that rewinds the backing file
// periodically so an ingestion benchmark's disk footprint stays
// bounded while every Write still pays the real syscall.
type rewindWriter struct {
	f *os.File
	n int64
}

func (w *rewindWriter) Write(p []byte) (int, error) {
	if w.n += int64(len(p)); w.n > 64<<20 {
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		w.n = 0
	}
	return w.f.Write(p)
}

func benchSinkFile(b *testing.B) *rewindWriter {
	b.Helper()
	f, err := os.CreateTemp(b.TempDir(), "audit-*.jsonl")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return &rewindWriter{f: f}
}

// ingestPool precomputes a cycle of valid entries so the benchmark
// loop measures the log, not entry construction.
func ingestPool() []audit.Entry {
	v := scenario.Vocabulary()
	dataVals := v.Hierarchy("data").Leaves()
	purposeVals := v.Hierarchy("purpose").Leaves()
	roleVals := v.Hierarchy("authorized").Leaves()
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	pool := make([]audit.Entry, 4096)
	for i := range pool {
		st := audit.Regular
		if i%3 == 0 {
			st = audit.Exception
		}
		pool[i] = audit.Entry{
			Time: base.Add(time.Duration(i) * time.Second), Op: audit.Allow,
			User:       fmt.Sprintf("u%d", i%97),
			Data:       dataVals[i%len(dataVals)],
			Purpose:    purposeVals[i%len(purposeVals)],
			Authorized: roleVals[i%len(roleVals)],
			Status:     st,
		}
	}
	return pool
}

func BenchmarkE10_AuditIngestion(b *testing.B) {
	pool := ingestPool()
	mask := uint64(len(pool) - 1)
	b.Run("baseline-mutex", func(b *testing.B) {
		l := &mutexLog{w: benchSinkFile(b)}
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := l.append(pool[ctr.Add(1)&mask]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("baseline-mutex/batch=256", func(b *testing.B) {
		l := &mutexLog{w: benchSinkFile(b)}
		b.ReportAllocs()
		for n := 0; n < b.N; n += 256 {
			k := 256
			if b.N-n < k {
				k = b.N - n
			}
			off := n % len(pool)
			if off+k > len(pool) {
				off = 0
			}
			if err := l.appendBatch(pool[off : off+k]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		l := audit.NewLog("ward")
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := ctr.Add(1)
				if err := l.Append(pool[n&mask]); err != nil {
					b.Fatal(err)
				}
				if n%ingestResetEvery == 0 {
					l.Reset()
				}
			}
		})
	})
	b.Run("sharded/batch=256", func(b *testing.B) {
		// Batched ingestion is the pipeline's bulk mode (epoch loads,
		// feed replay): one sequence-range reservation and one lock
		// acquisition per stripe per batch.
		l := audit.NewLog("ward")
		b.ReportAllocs()
		total := 0
		for n := 0; n < b.N; n += 256 {
			k := 256
			if b.N-n < k {
				k = b.N - n
			}
			off := n % len(pool)
			if off+k > len(pool) {
				off = 0
			}
			if err := l.Append(pool[off : off+k]...); err != nil {
				b.Fatal(err)
			}
			if total += k; total >= ingestResetEvery {
				l.Reset()
				total = 0
			}
		}
	})
	b.Run("sharded+durable", func(b *testing.B) {
		// The durable store's sink encodes off the appender and feeds
		// the group-commit WAL. Retiring every entry through Expire
		// both bounds memory, as Reset does for the other rows, and
		// checkpoints, which truncates the WAL's closed segments.
		d, _, err := audit.OpenDurable("ward", b.TempDir(), audit.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		retire := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := ctr.Add(1)
				if err := d.Append(pool[n&mask]); err != nil {
					b.Fatal(err)
				}
				if n%ingestResetEvery == 0 {
					if _, err := d.Expire(retire, time.Time{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// ---- E11b: incremental refinement epoch cost vs. log size ----

// BenchmarkE11_IncrementalRefinement measures one refinement round at
// increasing log sizes. The incremental path reads the per-shard
// group index (O(groups)); the rescan path re-derives the same round
// from a full snapshot (O(rows)), which is what the sequential
// Session does every epoch.
func BenchmarkE11_IncrementalRefinement(b *testing.B) {
	v := scenario.Vocabulary()
	pool := ingestPool()
	investigate := core.ReviewerFunc(func(core.Pattern) core.Decision {
		return core.Investigate
	})
	for _, n := range []int{1000, 10000, 100000} {
		l := audit.NewLog("ward")
		batch := make([]audit.Entry, 0, 1024)
		for i := 0; i < n; i++ {
			batch = append(batch, pool[i%len(pool)])
			if len(batch) == cap(batch) || i == n-1 {
				if err := l.Append(batch...); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		b.Run(fmt.Sprintf("rows=%d/incremental", n), func(b *testing.B) {
			sess := core.NewStreamSession(l, scenario.PolicyStore(), v, core.Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(investigate); err != nil {
					b.Fatal(err)
				}
				sess.History = sess.History[:0]
			}
		})
		b.Run(fmt.Sprintf("rows=%d/rescan", n), func(b *testing.B) {
			ps := scenario.PolicyStore()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap := l.Snapshot()
				if _, err := core.EntryCoverage(ps, snap, v); err != nil {
					b.Fatal(err)
				}
				if _, err := core.Refinement(ps, snap, v, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E12: enforced query throughput on the compiled fast path ----

// qpsSystem is the E12/E13 fixture: a small clinical table, so the
// measurement sits in the per-query enforcement hot loop (point
// queries from a clinical UI) rather than in table-scan throughput.
func qpsSystem(b *testing.B) *System {
	b.Helper()
	sys := New(Config{Policy: scenario.PolicyStore()})
	sys.DB().MustExec(`CREATE TABLE records (patient TEXT, referral TEXT, psychiatry TEXT)`)
	for i := 0; i < 8; i++ {
		sys.DB().MustExec(fmt.Sprintf(
			`INSERT INTO records VALUES ('p%d', 'consult %d', 'note %d')`, i, i, i))
	}
	if err := sys.RegisterTable(TableMapping{
		Table: "records", PatientCol: "patient",
		Categories: map[string]string{"referral": "referral", "psychiatry": "psychiatry"},
	}); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkE12_EnforcedQPS measures the per-query enforcement hot
// loop: the compiled path with a cold plan cache (cold — plans and
// snapshot flushed every iteration) and the steady state (warm), with
// and without consent filtering in play. decision/warm isolates the
// enforcement decision layer itself (no audit log, LIMIT 0
// execution). The reference-interpreter rows (slowpath,
// slowpath+consent, decision/slowpath) live with their oracle in
// internal/hdb as BenchmarkE12_ReferenceEnforcement.
func BenchmarkE12_EnforcedQPS(b *testing.B) {
	const sql = `SELECT patient, referral, psychiatry FROM records WHERE patient <> 'p0'`
	run := func(b *testing.B, sys *System, flush bool) {
		b.Helper()
		// Prime caches so "warm" measures the steady state.
		if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if flush {
				sys.Enforcer().FlushPlans()
			}
			if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, qpsSystem(b), true)
	})
	b.Run("warm", func(b *testing.B) {
		run(b, qpsSystem(b), false)
	})
	b.Run("warm+consent", func(b *testing.B) {
		sys := qpsSystem(b)
		if err := sys.SetConsent("p1", "clinical", "", OptOut, time.Now()); err != nil {
			b.Fatal(err)
		}
		run(b, sys, false)
	})

	// Decision layer in isolation: nil audit log and a LIMIT 0
	// statement reduce the shared tail (execution + audit) to its
	// floor, leaving parse + category analysis + policy/consent
	// decisions as the measured quantity.
	b.Run("decision/warm", func(b *testing.B) {
		const dsql = `SELECT patient, referral, psychiatry FROM records LIMIT 0`
		db := minidb.NewDatabase()
		db.MustExec(`CREATE TABLE records (patient TEXT, referral TEXT, psychiatry TEXT)`)
		db.MustExec(`INSERT INTO records VALUES ('p1', 'consult', 'note')`)
		v := vocab.Sample()
		enf := hdb.New(db, scenario.PolicyStore(), v, consent.NewStore(v, true), nil)
		if err := enf.RegisterTable(hdb.TableMapping{
			Table: "records", PatientCol: "patient",
			Categories: map[string]string{"referral": "referral", "psychiatry": "psychiatry"},
		}); err != nil {
			b.Fatal(err)
		}
		p := hdb.Principal{User: "tim", Role: "nurse"}
		if _, _, err := enf.Query(p, "treatment", dsql); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := enf.Query(p, "treatment", dsql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E14: symbolic policy analysis on a 100k-node vocabulary ----

// BenchmarkE14_SymbolicAnalysis measures the symbolic coverage engine
// at SNOMED/ICD scale: vocab.Synthetic(10, 5) carries a 111,111-node
// data hierarchy with 100,000 ground values, so a single subtree rule
// grounds to 10,000 × |purpose| × |authorized| rules and the
// materializing path is simply not runnable. The cold variant pays
// symbolic compilation plus the union-cardinality sweep every
// iteration; warm hits the generation-validated SymCache (the steady
// state of the coverage loop); lint runs the full PL001–PL008 pass.
// small/symbolic runs at the differential floor — the largest scale
// the ground-range oracle still handles; its materialized counterpart
// lives with the oracle in internal/core as
// BenchmarkE14_CoverageOracle, so the speedup stays recorded.
func BenchmarkE14_SymbolicAnalysis(b *testing.B) {
	big := vocab.Synthetic(10, 5)
	ps := policy.FromRules("PS",
		policy.MustRule(policy.T("data", "n1"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
		policy.MustRule(policy.T("data", "n23"), policy.T("purpose", "healthcare"), policy.T("authorized", "medical_staff")),
		policy.MustRule(policy.T("data", "n4"), policy.T("purpose", "billing"), policy.T("authorized", "clerk")),
	)
	al := policy.FromRules("AL",
		policy.MustRule(policy.T("data", "n0"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
		policy.MustRule(policy.T("data", "n2"), policy.T("purpose", "billing"), policy.T("authorized", "clerk")),
	)
	// Prime the Euler-tour interval numbering once so the loops below
	// measure the algebra, not the one-time renumbering.
	if c, err := core.ComputeCoverage(ps, al, big); err != nil || c <= 0 || c > 1 {
		b.Fatalf("coverage = %v, %v", c, err)
	}

	b.Run("coverage/warm-100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := core.ComputeCoverage(ps, al, big)
			if err != nil {
				b.Fatal(err)
			}
			if c <= 0 || c > 1 {
				b.Fatalf("coverage = %v", c)
			}
		}
	})
	b.Run("coverage/cold-100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sx := policy.NewSymRange(ps, big)
			sy := policy.NewSymRange(al, big)
			if sy.Card() == 0 || sx.IntersectCard(sy) == 0 {
				b.Fatal("empty symbolic range")
			}
		}
	})
	b.Run("lint-100k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep := lint.Policy(ps, big)
			if len(rep.Findings) == 0 {
				b.Fatal("lint found nothing on the synthetic policy")
			}
		}
	})

	// Differential floor: 1,296 ground data values is the comfortable
	// ceiling of the materializing oracle (15,552 ground rules per
	// full-subtree rule); the symbolic path answers the same query
	// without expanding any of them.
	small := vocab.Synthetic(6, 4)
	sps := policy.FromRules("PS",
		policy.MustRule(policy.T("data", "n1"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
		policy.MustRule(policy.T("data", "n23"), policy.T("purpose", "healthcare"), policy.T("authorized", "medical_staff")),
	)
	sal := policy.FromRules("AL",
		policy.MustRule(policy.T("data", "n0"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
	)
	b.Run("coverage/small/symbolic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := core.ComputeCoverage(sps, sal, small)
			if err != nil {
				b.Fatal(err)
			}
			if c <= 0 || c > 1 {
				b.Fatalf("coverage = %v", c)
			}
		}
	})
}

// ---- E13: fast-path scaling under concurrent mutation ----

// BenchmarkE13_ConcurrentEnforcement drives parallel enforced queries
// at GOMAXPROCS 1, 4 and 8 while a background writer churns the
// policy store and the consent registry (invalidating the RCU
// decision snapshot a few thousand times per second). Readers take no
// locks, so only the audit stripes and snapshot rebuilds are shared;
// each worker queries as its own clinician, which distributes the
// audit appends across stripes the way real traffic does. On a
// multi-core host the target is near-linear scaling to 4 cores; on a
// single-core host (the recorded BENCH_5.json run) the useful signal
// is that ns/op stays flat as GOMAXPROCS oversubscribes — contention
// does not collapse throughput.
func BenchmarkE13_ConcurrentEnforcement(b *testing.B) {
	const sql = `SELECT patient, referral, psychiatry FROM records WHERE patient <> 'p0'`
	churn := policy.MustRule(
		policy.T("data", "payment_history"),
		policy.T("purpose", "billing"),
		policy.T("authorized", "manager"),
	)
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			sys := qpsSystem(b)
			if _, _, err := sys.Query("tim", "nurse", "treatment", sql); err != nil {
				b.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					sys.PolicyStore().Add(churn)
					sys.PolicyStore().Remove(churn)
					_ = sys.SetConsent("p9", "payment_history", "", OptOut, time.Now())
					sys.RevokeConsent("p9")
					time.Sleep(200 * time.Microsecond)
				}
			}()
			var worker atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				user := fmt.Sprintf("clin%d", worker.Add(1))
				for pb.Next() {
					if _, _, err := sys.Query(user, "nurse", "treatment", sql); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// ---- E15: mining at audit scale (parallel FP-growth, incremental epochs) ----

// miningPool returns n synthetic practice rows shaped like a
// consolidated hospital log: every row is exception-based informal
// practice over a bounded behaviour vocabulary (12 data x 8 purpose x
// 6 role = 576 distinct projections, 24 staff, each projection
// exercised by many staff so the MinDistinctUsers filter passes).
// Field strings are shared, so the pool costs one Entry per row and
// the benchmarks measure mining, not fmt.
func miningPool(n int) []audit.Entry {
	mk := func(prefix string, k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	dataVals, purposeVals, roleVals := mk("lab", 12), mk("task", 8), mk("role", 6)
	staff := mk("u", 24)
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]audit.Entry, n)
	for i := range out {
		out[i] = audit.Entry{
			Time: base.Add(time.Duration(i) * time.Second), Op: audit.Allow,
			User:       staff[(i+i/576)%len(staff)],
			Data:       dataVals[i%12],
			Purpose:    purposeVals[(i/12)%8],
			Authorized: roleVals[(i/96)%6],
			Status:     audit.Exception,
		}
	}
	return out
}

// rescanOnly hides mining.Extractor's incremental and log-fed method
// sets, forcing the stream session onto its legacy path: re-accumulate
// the practice rows and run the full batch extraction every epoch.
// That is the pre-FP-growth cost model E15's epoch series compares
// against.
type rescanOnly struct{ inner core.PatternExtractor }

func (r rescanOnly) Extract(practice []audit.Entry, opts core.Options) ([]core.Pattern, error) {
	return r.inner.Extract(practice, opts)
}

// BenchmarkE15_MiningScale is the mining-at-audit-scale experiment:
//
//   - mine/rows=N/engine — one-shot batch extraction over N practice
//     rows (fold + mine + evidence); both engines share the interned
//     transaction table, so this measures end-to-end epoch cost.
//   - epoch/rows=N — streaming refinement epochs over an N-row log:
//     the incremental FP-growth path folds only the ~1k new rows into
//     persistent per-shard state, while the rescan path re-extracts
//     the cumulative practice. Flat incremental ns/op as N grows is
//     the headline; rows=10000000 is gated behind PRIMA_BENCH_FULL=1
//     to keep default runs small.
//
// The transaction-level engine rows (dense baskets, the FP-growth
// worker sweep) are internal/mining's BenchmarkE15_Mine.
func BenchmarkE15_MiningScale(b *testing.B) {
	v := scenario.Vocabulary()
	practice := miningPool(1000000)
	engines := []struct {
		name string
		x    core.PatternExtractor
	}{
		{"apriori", mining.Extractor{}},
		{"fpgrowth", mining.FPGrowth{}},
	}
	for _, n := range []int{100000, 1000000} {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("mine/rows=%d/%s", n, eng.name), func(b *testing.B) {
				rows := practice[:n]
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pats, err := eng.x.Extract(rows, core.Options{})
					if err != nil {
						b.Fatal(err)
					}
					if len(pats) == 0 {
						b.Fatal("no patterns")
					}
				}
			})
		}
	}

	investigate := core.ReviewerFunc(func(core.Pattern) core.Decision {
		return core.Investigate
	})
	// epoch measures one streaming refinement round while ~1k fresh
	// rows arrive per epoch. Each variant builds its own log so the
	// rescan baseline is not inflated by rows the incremental variant
	// appended.
	epoch := func(b *testing.B, n int, x core.PatternExtractor) {
		b.Helper()
		l := audit.NewLog("ward")
		batch := make([]audit.Entry, 0, 1024)
		for i := 0; i < n; i++ {
			batch = append(batch, practice[i%len(practice)])
			if len(batch) == cap(batch) || i == n-1 {
				if err := l.Append(batch...); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		sess := core.NewStreamSession(l, scenario.PolicyStore(), v, core.Options{Extractor: x})
		if _, err := sess.Run(investigate); err != nil { // bulk-fold the backlog untimed
			b.Fatal(err)
		}
		next := n
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch = batch[:0]
			for j := 0; j < 1024; j++ {
				batch = append(batch, practice[(next+j)%len(practice)])
			}
			next += len(batch)
			if err := l.Append(batch...); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Run(investigate); err != nil {
				b.Fatal(err)
			}
			sess.History = sess.History[:0]
		}
	}
	for _, n := range []int{100000, 1000000, 10000000} {
		b.Run(fmt.Sprintf("epoch/rows=%d", n), func(b *testing.B) {
			if n > len(practice) && os.Getenv("PRIMA_BENCH_FULL") == "" {
				b.Skip("10M-row epoch series: set PRIMA_BENCH_FULL=1")
			}
			b.Run("incremental-fpgrowth", func(b *testing.B) {
				epoch(b, n, mining.FPGrowth{})
			})
			b.Run("apriori-rescan", func(b *testing.B) {
				epoch(b, n, rescanOnly{inner: mining.Extractor{}})
			})
		})
	}
}

// ---- E16: durable storage engine ----

// benchBatched drives batched appends from the ingest pool: one
// append call per 256 entries, the pipeline's bulk mode.
func benchBatched(b *testing.B, append func(batch []audit.Entry) error) {
	pool := ingestPool()
	for n := 0; n < b.N; n += 256 {
		k := 256
		if b.N-n < k {
			k = b.N - n
		}
		off := n % len(pool)
		if off+k > len(pool) {
			off = 0
		}
		if err := append(pool[off : off+k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16_Durability measures the durable storage engine under
// the audit store (PR 9). The contract: batched group-commit durable
// ingest lands within ~2x of the in-memory batched baseline, because
// the WAL amortizes its fsyncs over whole commit windows (reported as
// fsyncs/op) and the B+tree index absorbs writes through the buffer
// pool (reported as pool-hit-rate). The recovery row measures
// cold-start at one million checkpointed entries: JSONL decode, bulk
// shard load, and refinement-index rebuild (entries/s).
func BenchmarkE16_Durability(b *testing.B) {
	b.Run("memory/batch=256", func(b *testing.B) {
		l := audit.NewLog("ward")
		b.ReportAllocs()
		benchBatched(b, func(batch []audit.Entry) error {
			return l.Append(batch...)
		})
	})
	openBench := func(b *testing.B, o audit.DurableOptions) *audit.Durable {
		b.Helper()
		d, _, err := audit.OpenDurable("ward", b.TempDir(), o)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	durableRun := func(o audit.DurableOptions) func(b *testing.B) {
		return func(b *testing.B) {
			d := openBench(b, o)
			b.ReportAllocs()
			b.ResetTimer()
			benchBatched(b, func(batch []audit.Entry) error {
				return d.Append(batch...)
			})
			d.Sync() // the durability point: group-commit fsync of the tail
			b.StopTimer()
			b.ReportMetric(float64(d.WALSyncs())/float64(b.N), "fsyncs/op")
			b.ReportMetric(d.PoolStats().HitRate(), "pool-hit-rate")
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("durable/batch=256", durableRun(audit.DurableOptions{}))
	b.Run("durable-nosync/batch=256", durableRun(audit.DurableOptions{NoSync: true}))

	b.Run("recovery/1M", func(b *testing.B) {
		entries := 1 << 20
		if testing.Short() {
			// The CI smoke runs one iteration with -short; the full
			// bench.sh run measures the real million-entry cold start.
			entries = 1 << 16
		}
		dir := b.TempDir()
		pool := ingestPool()
		d, _, err := audit.OpenDurable("ward", dir, audit.DurableOptions{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < entries; n += len(pool) {
			if entries-n < len(pool) {
				pool = pool[:entries-n]
			}
			if err := d.Append(pool...); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, rs, err := audit.OpenDurable("ward", dir, audit.DurableOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if rs.CheckpointEntries != entries {
				b.Fatalf("recovered %d entries, want %d", rs.CheckpointEntries, entries)
			}
			b.StopTimer()
			b.ReportMetric(float64(entries)/rs.Elapsed.Seconds(), "entries/s")
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// ---- E17: networked wire federation (PR 10) ----

// e17SiteLogs builds the federation corpus: `sites` logs of `perSite`
// entries each, drawn from the ingest pool with per-site user prefixes
// (so cross-site events stay distinct) and globally interleaved
// instants (so consolidation performs a real k-way merge rather than
// concatenating runs).
func e17SiteLogs(b *testing.B, sites, perSite int) []*audit.Log {
	b.Helper()
	pool := ingestPool()
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	logs := make([]*audit.Log, sites)
	for si := range logs {
		logs[si] = audit.NewLog(fmt.Sprintf("site-%02d", si))
		logs[si].Grow(perSite)
		batch := make([]audit.Entry, 0, 4096)
		for i := 0; i < perSite; i++ {
			e := pool[i%len(pool)]
			e.User = fmt.Sprintf("s%d-%s", si, e.User)
			e.Time = base.Add(time.Duration(i*sites+si) * time.Millisecond)
			batch = append(batch, e)
			if len(batch) == cap(batch) || i == perSite-1 {
				if err := logs[si].Append(batch...); err != nil {
					b.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	return logs
}

// BenchmarkE17_WireFederation measures the networked federation tier
// (PR 10) against its in-process oracle. The contract: shipping every
// site's log over loopback TCP — binary codec, pipelined windowed
// batches, per-conn goroutine pairs — keeps aggregate ingest within
// ~2.5x of the in-process merge throughput, and the binary batch
// codec encodes entries at least 3x faster than the JSON sink
// encoder. wire-ingest also reports the consolidation lag percentiles
// (batch send to ack round-trip, worst site).
func BenchmarkE17_WireFederation(b *testing.B) {
	const sites = 4
	perSite := 1 << 20
	if testing.Short() {
		// CI smoke: one iteration over a small corpus; bench.sh runs
		// the full four million entries.
		perSite = 1 << 14
	}
	logs := e17SiteLogs(b, sites, perSite)
	total := sites * perSite

	b.Run(fmt.Sprintf("inprocess-merge/sites=%d", sites), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := audit.NewFederation(logs...).Consolidate()
			if len(res.Entries) != total {
				b.Fatalf("consolidated %d entries, want %d", len(res.Entries), total)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
	})

	b.Run(fmt.Sprintf("wire-ingest/sites=%d", sites), func(b *testing.B) {
		b.ReportAllocs()
		var lagP50, lagP99 time.Duration
		var wireBytes uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cons, err := netfed.NewConsolidator(netfed.ConsolidatorOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- cons.Serve(ln) }()
			addr := ln.Addr().String()
			ctx, cancel := context.WithCancel(context.Background())
			streamers := make([]*netfed.Streamer, sites)
			for si, l := range logs {
				s, err := netfed.NewStreamer(l, "", netfed.StreamerOptions{
					Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
				})
				if err != nil {
					b.Fatal(err)
				}
				streamers[si] = s
			}
			var run sync.WaitGroup
			b.StartTimer()
			for _, s := range streamers {
				run.Add(1)
				go func(s *netfed.Streamer) {
					defer run.Done()
					if err := s.Run(ctx); err != nil {
						b.Error(err)
					}
				}(s)
			}
			for _, s := range streamers {
				if err := s.Drain(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cancel()
			run.Wait()
			lagP50, lagP99, wireBytes = 0, 0, 0
			for _, s := range streamers {
				st := s.Stats()
				if st.LagP50 > lagP50 {
					lagP50 = st.LagP50
				}
				if st.LagP99 > lagP99 {
					lagP99 = st.LagP99
				}
				wireBytes += st.Bytes
			}
			if got := cons.Stats().Entries; got != uint64(total) {
				b.Fatalf("consolidator folded %d entries, want %d", got, total)
			}
			if err := cons.Close(); err != nil {
				b.Fatal(err)
			}
			if err := <-serveDone; err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
		b.ReportMetric(float64(lagP50.Microseconds())/1000, "lag-p50-ms")
		b.ReportMetric(float64(lagP99.Microseconds())/1000, "lag-p99-ms")
		b.ReportMetric(float64(wireBytes)/float64(total), "wire-B/entry")
	})

	codecCorpus := logs[0].Snapshot()[:4096]
	b.Run("codec=binary", func(b *testing.B) {
		enc := netfed.NewEncoder()
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = enc.AppendBatch(buf[:0], 1, codecCorpus)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codecCorpus)), "ns/entry")
		b.ReportMetric(float64(len(buf))/float64(len(codecCorpus)), "B/entry")
	})
	b.Run("codec=jsonl", func(b *testing.B) {
		var buf []byte
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for j := range codecCorpus {
				if buf, err = audit.AppendSinkJSON(buf, &codecCorpus[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codecCorpus)), "ns/entry")
		b.ReportMetric(float64(len(buf))/float64(len(codecCorpus)), "B/entry")
	})
}
