package minidb

import (
	"io"
	"strings"
	"testing"
)

// joinDB: an audit table plus a staff directory, the natural join
// workload of PRIMA's audit analysis.
func joinDB(t *testing.T) *Database {
	t.Helper()
	db := testDB(t) // "access" table from minidb_test.go
	db.MustExec(`CREATE TABLE staff (name TEXT, dept TEXT, fte FLOAT)`)
	db.MustExec(`INSERT INTO staff VALUES
		('John', 'cardiology', 1.0),
		('Tim',  'cardiology', 0.8),
		('Mark', 'er',         1.0),
		('Bill', 'billing',    1.0),
		('Ghost','nowhere',    0.1)`)
	return db
}

func TestInnerJoin(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `
		SELECT access.usr, staff.dept FROM access
		JOIN staff ON access.usr = staff.name
		WHERE access.status = 0
		ORDER BY access.id`)
	// Exception rows by users present in staff: Mark (ids 3, 7, 10)
	// and Tim (id 8) = 4 rows, ordered by id.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	wantUsers := []string{"Mark", "Mark", "Tim", "Mark"}
	for i, row := range res.Rows {
		if row[0].AsText() != wantUsers[i] {
			t.Errorf("row %d = %v, want user %s", i, row, wantUsers[i])
		}
		if row[0].AsText() == "Tim" && row[1].AsText() != "cardiology" {
			t.Errorf("Tim's dept = %v", row[1])
		}
	}
}

func TestJoinWithAliases(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `
		SELECT a.usr, s.dept FROM access a
		INNER JOIN staff AS s ON a.usr = s.name
		WHERE a.id = 1`)
	if len(res.Rows) != 1 || res.Rows[0][1].AsText() != "cardiology" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLeftJoin(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `
		SELECT a.usr, s.dept FROM access a
		LEFT JOIN staff s ON a.usr = s.name
		WHERE a.id IN (1, 4)
		ORDER BY a.id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Sarah (id 4) has no staff row: dept NULL.
	if res.Rows[0][1].AsText() != "cardiology" || !res.Rows[1][1].IsNull() {
		t.Errorf("left join rows = %v", res.Rows)
	}
	// LEFT OUTER JOIN spelling.
	res = q(t, db, `SELECT s.dept FROM access a LEFT OUTER JOIN staff s ON a.usr = s.name WHERE a.id = 4`)
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Errorf("left outer join: %v", res.Rows)
	}
}

func TestJoinAggregation(t *testing.T) {
	db := joinDB(t)
	res := q(t, db, `
		SELECT s.dept, COUNT(*) AS n FROM access a
		JOIN staff s ON a.usr = s.name
		GROUP BY s.dept
		ORDER BY n DESC, s.dept`)
	// cardiology: John(id 1) + Tim(ids 2, 8) = 3; er: Mark ×3;
	// billing: Bill ×1. The 3-3 tie breaks alphabetically.
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	if res.Rows[0][0].AsText() != "cardiology" || res.Rows[0][1].AsInt() != 3 {
		t.Errorf("top group = %v", res.Rows[0])
	}
	if res.Rows[1][0].AsText() != "er" || res.Rows[1][1].AsInt() != 3 {
		t.Errorf("second group = %v", res.Rows[1])
	}
}

func TestJoinAmbiguousColumn(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE a (id INT, v TEXT)`)
	db.MustExec(`CREATE TABLE b (id INT, w TEXT)`)
	db.MustExec(`INSERT INTO a VALUES (1, 'x')`)
	db.MustExec(`INSERT INTO b VALUES (1, 'y')`)
	if _, err := db.Exec(`SELECT id FROM a JOIN b ON a.id = b.id`); err == nil {
		t.Error("ambiguous bare column accepted")
	}
	res := q(t, db, `SELECT a.id, b.id, v, w FROM a JOIN b ON a.id = b.id`)
	if len(res.Rows) != 1 || res.Rows[0][2].AsText() != "x" || res.Rows[0][3].AsText() != "y" {
		t.Errorf("qualified join: %v", res.Rows)
	}
}

func TestJoinErrors(t *testing.T) {
	db := joinDB(t)
	if _, err := db.Exec(`SELECT * FROM access JOIN nosuch ON access.usr = nosuch.x`); err == nil {
		t.Error("join to missing table accepted")
	}
	if _, err := db.Exec(`SELECT * FROM access JOIN staff`); err == nil {
		t.Error("join without ON accepted")
	}
	if _, err := db.Exec(`SELECT * FROM access JOIN staff ON`); err == nil {
		t.Error("join with empty ON accepted")
	}
	// ON referencing a later (not yet joined) table fails cleanly.
	db.MustExec(`CREATE TABLE third (z TEXT)`)
	if _, err := db.Exec(`SELECT * FROM access JOIN staff ON third.z = 'x' JOIN third ON 1 = 1`); err == nil {
		t.Error("forward table reference in ON accepted")
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := joinDB(t)
	db.MustExec(`CREATE TABLE depts (dept TEXT, floor INT)`)
	db.MustExec(`INSERT INTO depts VALUES ('cardiology', 3), ('er', 1), ('billing', 2)`)
	res := q(t, db, `
		SELECT a.usr, d.floor FROM access a
		JOIN staff s ON a.usr = s.name
		JOIN depts d ON s.dept = d.dept
		WHERE a.id = 5`)
	if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 2 {
		t.Fatalf("three-way join: %v", res.Rows)
	}
}

func TestIndexCorrectness(t *testing.T) {
	db := testDB(t)
	db.MustExec(`CREATE INDEX usr_ix ON access (usr)`)
	withIdx := q(t, db, `SELECT id FROM access WHERE usr = 'Mark' ORDER BY id`)
	if len(withIdx.Rows) != 3 {
		t.Fatalf("indexed lookup = %v", withIdx.Rows)
	}
	// The index is a row-source optimization: the full predicate
	// still applies.
	res := q(t, db, `SELECT id FROM access WHERE usr = 'Mark' AND status = 1`)
	if len(res.Rows) != 0 {
		t.Errorf("residual predicate ignored: %v", res.Rows)
	}
	// Index stays correct across mutations (maintained by each one).
	db.MustExec(`INSERT INTO access VALUES (11, 'Mark', 'Referral', 'Registration', 'Nurse', 0, '2007-03-02T08:00:00Z')`)
	if got := len(q(t, db, `SELECT id FROM access WHERE usr = 'Mark'`).Rows); got != 4 {
		t.Errorf("after insert: %d rows", got)
	}
	db.MustExec(`DELETE FROM access WHERE id = 11`)
	if got := len(q(t, db, `SELECT id FROM access WHERE usr = 'Mark'`).Rows); got != 3 {
		t.Errorf("after delete: %d rows", got)
	}
	db.MustExec(`UPDATE access SET usr = 'Markus' WHERE id = 3`)
	if got := len(q(t, db, `SELECT id FROM access WHERE usr = 'Mark'`).Rows); got != 2 {
		t.Errorf("after update: %d rows", got)
	}
}

func TestIndexManagement(t *testing.T) {
	db := testDB(t)
	if err := db.CreateIndex("access", "usr"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("access", "usr"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := db.CreateIndex("access", "nosuch"); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := db.CreateIndex("nosuch", "x"); err == nil {
		t.Error("index on missing table accepted")
	}
	tbl, _ := db.Table("access")
	if got := tbl.Indexes(); len(got) != 1 || got[0] != "usr" {
		t.Errorf("Indexes = %v", got)
	}
	if _, err := db.Exec(`CREATE INDEX bad ON access ()`); err == nil {
		t.Error("empty column list accepted")
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	db := joinDB(t)
	db.MustExec(`CREATE INDEX usr_ix ON access (usr)`)
	db.MustExec(`CREATE TABLE quirks (s TEXT, b BOOL, f FLOAT, n INT, ts TIMESTAMP)`)
	db.MustExec(`INSERT INTO quirks VALUES ('it''s; tricky', TRUE, 2.5, NULL, '2007-03-01T08:00:00Z')`)

	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("%v\nscript:\n%s", err, buf.String())
	}
	// Same tables, same row counts, same contents.
	if got, want := back.TableNames(), db.TableNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("tables = %v, want %v", got, want)
	}
	for _, name := range db.TableNames() {
		orig, _ := db.Table(name)
		copy2, _ := back.Table(name)
		if orig.Len() != copy2.Len() {
			t.Errorf("table %s: %d vs %d rows", name, orig.Len(), copy2.Len())
		}
	}
	row := back.MustExec(`SELECT s, b, f, n, ts FROM quirks`).Rows[0]
	if row[0].AsText() != "it's; tricky" || !row[1].AsBool() || row[2].AsFloat() != 2.5 || !row[3].IsNull() {
		t.Errorf("quirks row = %v", row)
	}
	if row[4].Kind() != KindTime {
		t.Errorf("timestamp kind = %v", row[4].Kind())
	}
	// Indexes survive.
	tbl, _ := back.Table("access")
	if got := tbl.Indexes(); len(got) != 1 || got[0] != "usr" {
		t.Errorf("indexes after load = %v", got)
	}
	// Dump is deterministic.
	var buf2 strings.Builder
	if err := back.Dump(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("dump not stable across a round trip")
	}
}

func TestSplitStatements(t *testing.T) {
	stmts, err := SplitStatements("SELECT 1 FROM a; -- comment\nINSERT INTO b VALUES (';');\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("stmts = %q", stmts)
	}
	if !strings.Contains(stmts[1], "';'") {
		t.Errorf("semicolon in string split: %q", stmts[1])
	}
	if got, _ := SplitStatements("  \n-- only a comment\n"); len(got) != 0 {
		t.Errorf("comment-only script: %q", got)
	}
	if _, err := SplitStatements("SELECT 'unterminated"); err == nil {
		t.Error("lex error not surfaced")
	}
}

func TestLoadScriptErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadScript(strings.NewReader("CREATE TABLE t (a INT); BROKEN;")); err == nil {
		t.Error("broken script accepted")
	} else if !strings.Contains(err.Error(), "statement 2") {
		t.Errorf("error does not locate statement: %v", err)
	}
}

func TestExplain(t *testing.T) {
	db := joinDB(t)
	planOf := func(sql string) string {
		t.Helper()
		res := q(t, db, sql)
		var lines []string
		for i := range res.Rows {
			lines = append(lines, res.Rows[i][0].AsText())
		}
		return strings.Join(lines, "\n")
	}
	plan := planOf(`EXPLAIN SELECT usr FROM access WHERE usr = 'Mark' ORDER BY id LIMIT 2`)
	for _, want := range []string{"scan access (10 rows)", "filter", "sort (1 keys)", "limit 2 offset 0"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// After indexing, the source changes to an index lookup.
	db.MustExec(`CREATE INDEX usr_ix ON access (usr)`)
	plan = planOf(`EXPLAIN SELECT usr FROM access WHERE usr = 'Mark'`)
	if !strings.Contains(plan, "index lookup access(usr)") {
		t.Errorf("index not used:\n%s", plan)
	}
	// Joins and grouping are described.
	plan = planOf(`EXPLAIN SELECT s.dept, COUNT(*) FROM access a JOIN staff s ON a.usr = s.name GROUP BY s.dept HAVING COUNT(*) > 1`)
	for _, want := range []string{"nested-loop inner join staff", "group by [s.dept]", "having"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if _, err := db.Exec(`EXPLAIN SELECT x FROM nosuch`); err == nil {
		t.Error("EXPLAIN of missing table accepted")
	}
	if _, err := db.Exec(`EXPLAIN DELETE FROM access`); err == nil {
		t.Error("EXPLAIN of non-SELECT accepted")
	}
}

func TestIndexFastPathDisabledUnderJoins(t *testing.T) {
	// Regression: both tables have a column named "x"; the base's x
	// is indexed. A qualified predicate on the JOINED table's x must
	// not be satisfied from the base index.
	db := NewDatabase()
	db.MustExec(`CREATE TABLE a (id INT, x TEXT)`)
	db.MustExec(`CREATE TABLE b (id INT, x TEXT)`)
	db.MustExec(`INSERT INTO a VALUES (1, 'keep'), (2, 'drop')`)
	db.MustExec(`INSERT INTO b VALUES (1, 'want'), (2, 'want')`)
	db.MustExec(`CREATE INDEX a_x ON a (x)`)
	res := q(t, db, `SELECT a.id FROM a JOIN b ON a.id = b.id WHERE b.x = 'want' ORDER BY a.id`)
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %v (index fast path filtered the wrong table)", res.Rows)
	}
	// And the indexed single-table path still works.
	res = q(t, db, `SELECT id FROM a WHERE x = 'keep'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("indexed lookup = %v", res.Rows)
	}
	// Index hit with zero matches returns empty, not full scan.
	res = q(t, db, `SELECT id FROM a WHERE x = 'nosuch'`)
	if len(res.Rows) != 0 {
		t.Fatalf("zero-match indexed lookup = %v", res.Rows)
	}
}

// Load reads a script produced by Dump (or hand-written SQL) into a
// fresh database.
func Load(r io.Reader) (*Database, error) {
	db := NewDatabase()
	if err := db.LoadScript(r); err != nil {
		return nil, err
	}
	return db, nil
}
