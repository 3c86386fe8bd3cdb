package hdb

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/minidb"
	"repro/internal/scenario"
	"repro/internal/vocab"
)

// BenchmarkE12_ReferenceEnforcement records the reference interpreter
// (reference_test.go) next to the compiled path on the E12 fixture of
// the root package's BenchmarkE12_EnforcedQPS, so the compiled-vs-
// reference ratio stays in the benchmark record: slowpath vs warm,
// each with and without consent filtering, and the decision layer in
// isolation (no audit log, LIMIT 0 execution) as decision/slowpath vs
// decision/warm.
func BenchmarkE12_ReferenceEnforcement(b *testing.B) {
	const sql = `SELECT patient, referral, psychiatry FROM records WHERE patient <> 'p0'`
	type queryFunc func(e *Enforcer, p Principal, purpose, sql string) (*minidb.Result, *Access, error)
	compiled := (*Enforcer).Query
	reference := (*Enforcer).referenceQuery

	// stack mirrors the root package's qpsSystem: a small clinical
	// table, so the measurement sits in the per-query enforcement loop.
	stack := func(b *testing.B, log *audit.Log, rows int) (*Enforcer, *consent.Store) {
		b.Helper()
		db := minidb.NewDatabase()
		db.MustExec(`CREATE TABLE records (patient TEXT, referral TEXT, psychiatry TEXT)`)
		for i := 0; i < rows; i++ {
			db.MustExec(fmt.Sprintf(
				`INSERT INTO records VALUES ('p%d', 'consult %d', 'note %d')`, i, i, i))
		}
		v := vocab.Sample()
		cs := consent.NewStore(v, true)
		enf := New(db, scenario.PolicyStore(), v, cs, log)
		if err := enf.RegisterTable(TableMapping{
			Table: "records", PatientCol: "patient",
			Categories: map[string]string{"referral": "referral", "psychiatry": "psychiatry"},
		}); err != nil {
			b.Fatal(err)
		}
		return enf, cs
	}
	run := func(b *testing.B, enf *Enforcer, q queryFunc, sql string) {
		b.Helper()
		p := Principal{User: "tim", Role: "nurse"}
		// Prime caches (a no-op for the reference) so "warm" measures
		// the steady state.
		if _, _, err := q(enf, p, "treatment", sql); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := q(enf, p, "treatment", sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, mode := range []struct {
		name string
		q    queryFunc
	}{{"slowpath", reference}, {"warm", compiled}} {
		b.Run(mode.name, func(b *testing.B) {
			enf, _ := stack(b, audit.NewLog(""), 8)
			run(b, enf, mode.q, sql)
		})
		b.Run(mode.name+"+consent", func(b *testing.B) {
			enf, cs := stack(b, audit.NewLog(""), 8)
			if err := cs.Set("p1", "clinical", "", consent.OptOut, time.Now()); err != nil {
				b.Fatal(err)
			}
			run(b, enf, mode.q, sql)
		})
		b.Run("decision/"+mode.name, func(b *testing.B) {
			enf, _ := stack(b, nil, 1)
			run(b, enf, mode.q, `SELECT patient, referral, psychiatry FROM records LIMIT 0`)
		})
	}
}
