package minidb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestValueSize pins the per-cell footprint: a table holds one Value
// per cell, so every byte here is a byte per cell. The packed payloads
// must still round-trip exactly, a timestamp's location included.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 40 {
		t.Fatalf("sizeof(Value) = %d bytes, want <= 40", got)
	}
	tm := time.Date(2007, 3, 1, 8, 0, 0, 5, time.FixedZone("EST", -5*3600))
	if got := Time(tm).AsTime(); got != tm {
		t.Errorf("Time(%v).AsTime() = %v", tm, got)
	}
	if got := Float(-0.25).AsFloat(); got != -0.25 {
		t.Errorf("Float(-0.25) = %v", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() || Int(1).AsBool() {
		t.Error("BOOL payload does not round-trip")
	}
	if got := Int(-7).AsInt(); got != -7 {
		t.Errorf("Int(-7) = %d", got)
	}
}

// indexSchema has a column of every kind; each one is indexed in the
// indexed database.
const indexSchema = `CREATE TABLE t (id INT, name TEXT, score FLOAT, ok BOOL, ts TIMESTAMP)`

var indexCols = []string{"id", "name", "score", "ok", "ts"}

// randLiteral returns a SQL literal for col, drawn from a small domain
// so that equal values recur, NULL included.
func randLiteral(rng *rand.Rand, col string) string {
	if rng.Intn(8) == 0 {
		return "NULL"
	}
	switch col {
	case "id":
		return fmt.Sprint(rng.Intn(12))
	case "name":
		return fmt.Sprintf("'n%d'", rng.Intn(6))
	case "score":
		// INT and FLOAT literals of the same number are equal, and so
		// are -0.0 and 0.
		switch rng.Intn(5) {
		case 0:
			return "-0.0"
		case 1, 2:
			return fmt.Sprint(rng.Intn(4))
		}
		return fmt.Sprintf("%d.5", rng.Intn(4))
	case "ok":
		return []string{"TRUE", "FALSE"}[rng.Intn(2)]
	default:
		// Two spellings of one instant: a timestamp column compares
		// text literals by parsing them.
		sec := rng.Intn(4)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("'2007-03-01T08:00:0%dZ'", sec)
		}
		return fmt.Sprintf("'2007-03-01 08:00:0%d'", sec)
	}
}

// randMutation returns a random INSERT, UPDATE (of an indexed column
// or of several) or DELETE.
func randMutation(rng *rand.Rand) string {
	switch r := rng.Intn(10); {
	case r < 5:
		vals := make([]string, len(indexCols))
		for i, c := range indexCols {
			vals[i] = randLiteral(rng, c)
		}
		return "INSERT INTO t VALUES (" + strings.Join(vals, ", ") + ")"
	case r < 8:
		set := indexCols[rng.Intn(len(indexCols))]
		where := indexCols[rng.Intn(len(indexCols))]
		sql := fmt.Sprintf("UPDATE t SET %s = %s", set, randLiteral(rng, set))
		if rng.Intn(3) == 0 {
			sql += fmt.Sprintf(", name = %s", randLiteral(rng, "name"))
		}
		return sql + fmt.Sprintf(" WHERE %s = %s", where, randLiteral(rng, where))
	default:
		where := indexCols[rng.Intn(len(indexCols))]
		return fmt.Sprintf("DELETE FROM t WHERE %s = %s", where, randLiteral(rng, where))
	}
}

// probes returns `col = literal` SELECTs over every column: plain,
// under a residual conjunct, and aggregated.
func probes(rng *rand.Rand) []string {
	var out []string
	for _, c := range indexCols {
		lit := randLiteral(rng, c)
		out = append(out,
			fmt.Sprintf("SELECT * FROM t WHERE %s = %s", c, lit),
			fmt.Sprintf("SELECT id, name FROM t WHERE %s = %s AND id > 3", c, lit),
			fmt.Sprintf("SELECT COUNT(*), MAX(id) FROM t WHERE %s = %s", c, lit))
	}
	return out
}

func render(res *Result) string {
	var sb strings.Builder
	for i := range res.Rows {
		sb.WriteString(strings.Join(res.RowStrings(i), "|"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestIndexedMatchesScan is the indexed-vs-scan differential: two
// databases take the same seeded random mix of inserts, updates of
// indexed and other columns, and deletes; one has an index on every
// column, the other none. Every `col = literal` SELECT must return the
// same rows in the same order, and every mutation affect the same rows.
func TestIndexedMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		indexed, scan := NewDatabase(), NewDatabase()
		indexed.MustExec(indexSchema)
		scan.MustExec(indexSchema)
		for _, c := range indexCols {
			if err := indexed.CreateIndex("t", c); err != nil {
				t.Fatal(err)
			}
		}
		probed := 0
		for step := 0; step < 300; step++ {
			sql := randMutation(rng)
			ri, erri := indexed.Exec(sql)
			rs, errs := scan.Exec(sql)
			if (erri == nil) != (errs == nil) {
				t.Fatalf("seed %d step %d %q: indexed err %v, scan err %v", seed, step, sql, erri, errs)
			}
			if erri == nil && ri.Affected != rs.Affected {
				t.Fatalf("seed %d step %d %q: indexed affected %d, scan %d", seed, step, sql, ri.Affected, rs.Affected)
			}
			for _, q := range probes(rng) {
				gi, err := indexed.Exec(q)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				gs, err := scan.Exec(q)
				if err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				if a, b := render(gi), render(gs); a != b {
					t.Fatalf("seed %d step %d after %q:\n%s\nindexed:\n%s\nscan:\n%s", seed, step, sql, q, a, b)
				}
				probed += len(gi.Rows)
			}
		}
		if probed == 0 {
			t.Fatalf("seed %d: no probe matched a row; the differential compares nothing", seed)
		}
		// The indexed side really reads through its indexes.
		plan := render(indexed.MustExec(`EXPLAIN SELECT * FROM t WHERE name = 'n1'`))
		if !strings.Contains(plan, "index lookup t(name)") {
			t.Fatalf("indexed plan:\n%s", plan)
		}
	}
}

// checkIndexedReads compares, for every distinct value of col in the
// table plus one absent value, the indexed `col = v` read with the
// same predicate evaluated by a scan (an OR keeps the index away).
func checkIndexedReads(t *testing.T, db *Database, col string) {
	t.Helper()
	res, err := db.Exec("SELECT DISTINCT " + col + " FROM t")
	if err != nil {
		t.Fatal(err)
	}
	lits := []string{"'absent'"}
	for _, row := range res.Rows {
		if !row[0].IsNull() {
			lits = append(lits, sqlLiteral(row[0]))
		}
	}
	for _, lit := range lits {
		plan := render(db.MustExec(fmt.Sprintf("EXPLAIN SELECT * FROM t WHERE %s = %s", col, lit)))
		if !strings.Contains(plan, "index lookup") {
			t.Fatalf("%s = %s is not an index lookup:\n%s", col, lit, plan)
		}
		got := render(db.MustExec(fmt.Sprintf("SELECT * FROM t WHERE %s = %s", col, lit)))
		want := render(db.MustExec(fmt.Sprintf("SELECT * FROM t WHERE %s = %s OR 1 = 0", col, lit)))
		if got != want {
			t.Fatalf("%s = %s: indexed\n%s\nscan\n%s", col, lit, got, want)
		}
	}
}

// TestFileStorageIndexReopen: a file table's index declarations
// survive close/reopen, a torn WAL tail and a later reopen, and the
// rebuilt indexes answer exactly as scans do.
func TestFileStorageIndexReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Database {
		t.Helper()
		db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	db.MustExec(durabilitySchema + ` STORAGE file`)
	db.MustExec(`CREATE INDEX t_name ON t (name)`)
	for i, sql := range durabilityStatements(200, 3) {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("stmt %d %q: %v", i, sql, err)
		}
	}
	if err := db.CreateIndex("t", "SCORE"); err != nil {
		t.Fatal(err)
	}
	want := selectAll(t, db, "t")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Indexes(); len(got) != 2 || got[0] != "name" || got[1] != "score" {
		t.Fatalf("reopened indexes = %v, want [name score]", got)
	}
	if got := selectAll(t, db, "t"); !sameRows(want, got) {
		t.Fatal("reopened rows diverged")
	}
	checkIndexedReads(t, db, "name")
	checkIndexedReads(t, db, "score")

	// Mutations past the reopen reach the WAL only; tear its tail.
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t (id, name, score, ok) VALUES (%d, 'torn%d', %d.5, TRUE)`, 1000+i, i%3, i))
	}
	db.MustExec(`UPDATE t SET name = 'moved' WHERE id = 1005`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "t", "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment (%v)", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	if tbl, err = db.Table("t"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Indexes(); len(got) != 2 {
		t.Fatalf("indexes after torn reopen = %v", got)
	}
	// The torn record is the last one, the UPDATE: every insert stays,
	// and no row was renamed.
	if rows := selectAll(t, db, "t"); len(rows) != len(want)+20 {
		t.Fatalf("torn reopen kept %d rows, want %d", len(rows), len(want)+20)
	}
	if res := db.MustExec(`SELECT id FROM t WHERE name = 'moved'`); len(res.Rows) != 0 {
		t.Fatalf("the torn UPDATE survived: %v", res.Rows)
	}
	checkIndexedReads(t, db, "name")
	checkIndexedReads(t, db, "score")
}

// TestFileStorageIndexUnknownColumn: a declaration naming no column of
// the stored schema fails the reopen rather than index the wrong one.
func TestFileStorageIndexUnknownColumn(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(durabilitySchema + ` STORAGE file`)
	tbl, _ := db.Table("t")
	tbl.mu.Lock()
	err = tbl.store.declareIndex("nosuch")
	tbl.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1}); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("reopen with a stray index declaration: %v", err)
	}
}

// BenchmarkIndexedLookup reads one patient's chart row from a
// 3000-row table by `patient = literal`, as an enforced chart query
// does, through the patient index and by a scan.
func BenchmarkIndexedLookup(b *testing.B) {
	const patients = 3000
	for _, indexed := range []bool{true, false} {
		name := "scan"
		if indexed {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			db := NewDatabase()
			db.MustExec(`CREATE TABLE chart (patient TEXT, referral TEXT, psychiatry TEXT)`)
			for i := 0; i < patients; i++ {
				p := fmt.Sprintf("p%05d", i)
				if err := db.Insert("chart", Text(p), Text("ref-"+p), Text("psy-"+p)); err != nil {
					b.Fatal(err)
				}
			}
			if indexed {
				if err := db.CreateIndex("chart", "patient"); err != nil {
					b.Fatal(err)
				}
			}
			st, err := Parse(`SELECT patient, referral FROM chart WHERE patient = 'p01234' AND patient NOT IN ('p00001', 'p00002')`)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.ExecStmt(st)
				if err != nil || len(res.Rows) != 1 {
					b.Fatalf("rows %v, err %v", res, err)
				}
			}
		})
	}
}

// TestIndexChoiceSkipsUnindexedConjunct: with one conjunct on an
// unindexed column and one on an indexed column, the index answers in
// either order, in EXPLAIN and in execution, and the rows equal a scan.
func TestIndexChoiceSkipsUnindexedConjunct(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE t (id INT, name TEXT, patient TEXT)`)
	db.MustExec(`CREATE INDEX t_patient ON t (patient)`)
	for i := 0; i < 60; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'n%d', 'p%d')`, i, i%4, i%5))
	}
	for _, where := range []string{
		`name = 'n1' AND patient = 'p2'`,
		`patient = 'p2' AND name = 'n1'`,
		`name = NULL AND 'p2' = patient`,
	} {
		plan := render(db.MustExec(`EXPLAIN SELECT * FROM t WHERE ` + where))
		if !strings.Contains(plan, "index lookup t(patient)") {
			t.Fatalf("%s:\n%s", where, plan)
		}
		got := render(db.MustExec(`SELECT * FROM t WHERE ` + where))
		want := render(db.MustExec(`SELECT * FROM t WHERE (` + where + `) OR 1 = 0`))
		if got != want {
			t.Fatalf("%s: indexed\n%s\nscan\n%s", where, got, want)
		}
	}
	if got := render(db.MustExec(`SELECT id FROM t WHERE name = 'n1' AND patient = 'p2'`)); got == "" {
		t.Fatal("the probe matched no row; the comparison shows nothing")
	}
}
