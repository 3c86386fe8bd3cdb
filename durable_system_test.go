package prima

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/minidb"
	"repro/internal/scenario"
)

// durableHospital wires a System on disk: durable audit store plus a
// file-backed records table.
func durableHospital(t *testing.T, dir string) (*System, RecoveryStats) {
	t.Helper()
	sys, rs, err := Open(Config{Policy: scenario.PolicyStore(), Site: "s1"}, SystemOptions{
		Dir:   dir,
		Audit: DurableAuditOptions{CommitInterval: -1},
		DB:    minidb.StorageOptions{CommitInterval: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	sys.SetClock(func() time.Time { step++; return clock0.Add(time.Duration(step) * time.Second) })
	if len(sys.DB().TableNames()) == 0 {
		sys.DB().MustExec(`CREATE TABLE records (
			patient TEXT, address TEXT, prescription TEXT, referral TEXT, psychiatry TEXT, insurance TEXT
		) STORAGE file`)
		sys.DB().MustExec(`INSERT INTO records VALUES
			('p1', '1 Elm St',  'aspirin', 'cardio', 'none',    'acme-health'),
			('p2', '2 Oak Ave', 'statins', 'derm',   'anxiety', 'medicare'),
			('p3', '3 Pine Rd', 'insulin', 'endo',   'none',    'acme-health')`)
	}
	// Enforcement mappings are configuration, not state: register on
	// every open.
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
	return sys, rs
}

func auditJSONL(t *testing.T, entries []Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAuditJSONL(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSystemOpenRecovery drives the full facade against disk: queries
// and break-glass accesses land in the durable audit store and the
// file-backed table, survive Close, and the reopened System resumes
// enforcement, coverage and refinement on the recovered state.
func TestSystemOpenRecovery(t *testing.T) {
	dir := t.TempDir()
	sys, rs := durableHospital(t, dir)
	if rs.CheckpointEntries != 0 || rs.WALEntries != 0 {
		t.Fatalf("fresh open recovered %d/%d entries", rs.CheckpointEntries, rs.WALEntries)
	}

	if _, _, err := sys.Query("tim", "nurse", "treatment", `SELECT referral FROM records`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Query("mark", "nurse", "registration", `SELECT referral FROM records`); !errors.Is(err, ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
	for _, u := range []string{"mark", "tim", "bob", "mark", "tim"} {
		if _, _, err := sys.BreakGlass(u, "nurse", "registration", "front desk backlog",
			`SELECT referral FROM records`); err != nil {
			t.Fatal(err)
		}
	}
	round, err := sys.RunRefinement(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Adopted) == 0 {
		t.Fatal("refinement adopted nothing")
	}
	// Adopted pattern takes effect, producing one more audit entry.
	if _, _, err := sys.Query("mark", "nurse", "registration", `SELECT referral FROM records`); err != nil {
		t.Fatalf("post-adoption query: %v", err)
	}

	wantAudit := auditJSONL(t, sys.AuditLog().Snapshot())
	wantLen := sys.AuditLog().Len()
	if err := sys.SyncStorage(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: audit entries and clinical rows come back from disk.
	sys2, rs2 := durableHospital(t, dir)
	defer sys2.Close()
	if got := rs2.CheckpointEntries + rs2.WALEntries; got != wantLen {
		t.Fatalf("recovered %d audit entries, want %d", got, wantLen)
	}
	if got := auditJSONL(t, sys2.AuditLog().Snapshot()); !bytes.Equal(got, wantAudit) {
		t.Fatal("recovered audit log is not byte-identical")
	}
	res, err := sys2.DB().Exec(`SELECT patient FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("recovered records rows = %d, want 3", len(res.Rows))
	}

	// The recovered log serves coverage and another refinement round
	// (the adopted rule was not persisted with the policy, so the same
	// pattern is discoverable again).
	if _, err := sys2.EntryCoverage(); err != nil {
		t.Fatal(err)
	}
	round2, err := sys2.RunRefinement(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round2.Adopted) == 0 {
		t.Fatal("refinement over recovered log adopted nothing")
	}

	// New accesses append on top of the recovered stream.
	if _, _, err := sys2.Query("tim", "nurse", "treatment", `SELECT referral FROM records`); err != nil {
		t.Fatal(err)
	}
	if sys2.AuditLog().Len() != wantLen+1 {
		t.Fatalf("audit len after reopen+query = %d, want %d", sys2.AuditLog().Len(), wantLen+1)
	}

	// Checkpoint bounds the next recovery: everything lands in the
	// index store's checkpoint, nothing in the WAL tail.
	if err := sys2.CheckpointStorage(); err != nil {
		t.Fatal(err)
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	sys3, rs3 := durableHospital(t, dir)
	defer sys3.Close()
	if rs3.CheckpointEntries != wantLen+1 || rs3.WALEntries != 0 {
		t.Fatalf("post-checkpoint recovery = %d/%d, want %d/0",
			rs3.CheckpointEntries, rs3.WALEntries, wantLen+1)
	}
}

func TestSystemOpenNeedsDir(t *testing.T) {
	if _, _, err := Open(Config{}, SystemOptions{}); err == nil {
		t.Fatal("Open without Dir accepted")
	}
}
