package minidb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// selectAll renders every row of a table, in table order, one string
// per row. Used for byte-level differential comparison between the
// in-memory oracle and the file-backed table.
func selectAll(t *testing.T, db *Database, table string) []string {
	t.Helper()
	res, err := db.Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatalf("SELECT * FROM %s: %v", table, err)
	}
	out := make([]string, len(res.Rows))
	for i := range res.Rows {
		out[i] = strings.Join(res.RowStrings(i), "|")
	}
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStorageClauseParsing(t *testing.T) {
	st, err := Parse(`CREATE TABLE t (a INT, b TEXT) STORAGE file`)
	if err != nil {
		t.Fatalf("parse STORAGE file: %v", err)
	}
	if ct := st.(*CreateTableStmt); ct.Storage != "file" {
		t.Fatalf("Storage = %q, want file", ct.Storage)
	}
	st, err = Parse(`CREATE TABLE t (a INT) STORAGE MEMORY`)
	if err != nil {
		t.Fatalf("parse STORAGE MEMORY: %v", err)
	}
	if ct := st.(*CreateTableStmt); ct.Storage != "memory" {
		t.Fatalf("Storage = %q, want memory", ct.Storage)
	}
	st, err = Parse(`CREATE TABLE t (a INT)`)
	if err != nil {
		t.Fatalf("parse without STORAGE: %v", err)
	}
	if ct := st.(*CreateTableStmt); ct.Storage != "" {
		t.Fatalf("Storage = %q, want empty", ct.Storage)
	}

	// Unknown backend and file-without-AttachStorage are execution
	// errors, not parse errors.
	db := NewDatabase()
	if _, err := db.Exec(`CREATE TABLE t (a INT) STORAGE tape`); err == nil {
		t.Fatal("unknown storage backend accepted")
	}
	if _, err := db.Exec(`CREATE TABLE t (a INT) STORAGE file`); err == nil {
		t.Fatal("STORAGE file without AttachStorage accepted")
	}
	// STORAGE memory is always available.
	if _, err := db.Exec(`CREATE TABLE t (a INT) STORAGE memory`); err != nil {
		t.Fatalf("STORAGE memory: %v", err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	zone := time.FixedZone("", -5*3600)
	rows := [][]Value{
		{Null(), Bool(true), Int(-42), Float(3.25), Text("hello"), Time(time.Date(2026, 3, 1, 8, 0, 0, 123, time.UTC))},
		{Bool(false), Int(0), Float(-0.0), Text(""), Text("emoji éß"), Time(time.Date(2025, 12, 31, 23, 59, 59, 0, zone))},
		{Int(1 << 62), Text(strings.Repeat("x", 300))},
		{},
	}
	for i, row := range rows {
		got, err := decodeRow(encodeRow(nil, row))
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if len(got) != len(row) {
			t.Fatalf("row %d: %d values, want %d", i, len(got), len(row))
		}
		for j := range row {
			if got[j].Kind() != row[j].Kind() || got[j].String() != row[j].String() {
				t.Fatalf("row %d col %d: got %v (%v), want %v (%v)",
					i, j, got[j], got[j].Kind(), row[j], row[j].Kind())
			}
		}
	}
	// Zone offset survives: the reloaded Time renders identically.
	orig := Time(time.Date(2026, 1, 2, 3, 4, 5, 0, zone))
	got, err := decodeRow(encodeRow(nil, []Value{orig}))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].String() != orig.String() {
		t.Fatalf("zoned time: got %s, want %s", got[0], orig)
	}

	// Corrupt records error instead of panicking.
	enc := encodeRow(nil, []Value{Int(7), Text("abc")})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decodeRow(enc[:cut]); err == nil {
			t.Fatalf("truncated record at %d decoded cleanly", cut)
		}
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	cols := []Column{{Name: "id", Type: TypeInt}, {Name: "Name", Type: TypeText}, {Name: "ts", Type: TypeTime}}
	got, err := decodeSchema(encodeSchema(cols))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSchema(got, cols) {
		t.Fatalf("schema round trip: got %v, want %v", got, cols)
	}
	if sameSchema(got, cols[:2]) {
		t.Fatal("sameSchema accepted differing lengths")
	}
}

// durabilityStatements is a mixed workload over one table: inserts,
// point updates, point and range deletes.
func durabilityStatements(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	stmts := []string{}
	next := 0
	for len(stmts) < n {
		switch r := rng.Intn(10); {
		case r < 6 || next == 0:
			stmts = append(stmts, fmt.Sprintf(
				`INSERT INTO t (id, name, score, ok) VALUES (%d, 'name-%d', %d.5, %v)`,
				next, next, rng.Intn(100), next%2 == 0))
			next++
		case r < 8:
			stmts = append(stmts, fmt.Sprintf(
				`UPDATE t SET score = %d.25, ok = %v WHERE id = %d`,
				rng.Intn(100), rng.Intn(2) == 0, rng.Intn(next)))
		case r < 9:
			stmts = append(stmts, fmt.Sprintf(`DELETE FROM t WHERE id = %d`, rng.Intn(next)))
		default:
			lo := rng.Intn(next)
			stmts = append(stmts, fmt.Sprintf(`DELETE FROM t WHERE id >= %d AND id < %d`, lo, lo+3))
		}
	}
	return stmts
}

const durabilitySchema = `CREATE TABLE t (id INT, name TEXT, score FLOAT, ok BOOL)`

// TestFileStorageDurability runs the same statement stream against an
// in-memory oracle and a file-backed table, comparing SELECT output
// after every statement, then closes and reopens the file database and
// compares again — the recovered table must be value-identical without
// re-running CREATE TABLE.
func TestFileStorageDurability(t *testing.T) {
	dir := t.TempDir()
	mem := NewDatabase()
	if _, err := mem.Exec(durabilitySchema); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1, CheckpointEvery: 37})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(durabilitySchema + ` STORAGE file`); err != nil {
		t.Fatal(err)
	}
	for i, sql := range durabilityStatements(400, 1) {
		rm, errM := mem.Exec(sql)
		rf, errF := db.Exec(sql)
		if (errM == nil) != (errF == nil) {
			t.Fatalf("stmt %d error divergence: mem=%v file=%v", i, errM, errF)
		}
		if errM == nil && rm.Affected != rf.Affected {
			t.Fatalf("stmt %d affected divergence: mem=%d file=%d", i, rm.Affected, rf.Affected)
		}
		if i%50 == 0 && !sameRows(selectAll(t, mem, "t"), selectAll(t, db, "t")) {
			t.Fatalf("stmt %d: live state diverged", i)
		}
	}
	want := selectAll(t, mem, "t")
	if !sameRows(want, selectAll(t, db, "t")) {
		t.Fatal("final live state diverged")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the table comes back from disk, no CREATE needed.
	db2, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.TableNames(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("recovered tables = %v, want [t]", got)
	}
	if got := selectAll(t, db2, "t"); !sameRows(want, got) {
		t.Fatalf("recovered state diverged:\n got %d rows\nwant %d rows", len(got), len(want))
	}
	// Recovered table stays writable and keeps rowids unique: new
	// inserts never collide with recovered rows.
	if _, err := db2.Exec(`INSERT INTO t (id, name, score, ok) VALUES (9999, 'post', 1.5, TRUE)`); err != nil {
		t.Fatal(err)
	}
	if got := selectAll(t, db2, "t"); len(got) != len(want)+1 {
		t.Fatalf("post-recovery insert: %d rows, want %d", len(got), len(want)+1)
	}
}

// TestFileStorageCheckpointReopen exercises the explicit Checkpoint
// path: a checkpoint folds the WAL into the tree and drops every
// closed segment behind it (the active segment survives; its records
// are re-applied idempotently on recovery).
func TestFileStorageCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1, CheckpointEvery: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(durabilitySchema + ` STORAGE file`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			`INSERT INTO t (id, name, score, ok) VALUES (%d, 'n%d', %d.0, FALSE)`, i, i, i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			// Rolling happens at batch boundaries: flush in small batches
			// so the 512-byte segment budget actually rolls segments.
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := selectAll(t, db, "t")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint dropped every closed segment: only the active one
	// remains, so replay sees a small tail, not the whole history.
	wst, err := storage.Replay(filepath.Join(dir, "t", "wal"), nil, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if wst.Segments > 1 {
		t.Fatalf("WAL holds %d segments after checkpoint, want at most the active one", wst.Segments)
	}
	if wst.Records >= 100 {
		t.Fatalf("WAL replays %d records after checkpoint, want a short tail", wst.Records)
	}
	db2, err := OpenDatabase(StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := selectAll(t, db2, "t"); !sameRows(want, got) {
		t.Fatal("checkpoint-only recovery diverged")
	}
}

// TestCheckpointLeavesNoWAL: a checkpoint syncs and rolls the WAL
// before it truncates, so after insert, Checkpoint and Close the WAL
// holds no frame, and a reopen neither replays nor checkpoints again:
// the store's version stays where the checkpoint left it.
func TestCheckpointLeavesNoWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(StorageOptions{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(durabilitySchema + ` STORAGE file`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := db.Exec(fmt.Sprintf(
			`INSERT INTO t (id, name, score, ok) VALUES (%d, 'n%d', %d.0, TRUE)`, i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := selectAll(t, db, "t")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	version := db.tables["t"].store.(*fileStore).st.Version()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for reopen := 0; reopen <= 3; reopen++ {
		wst, err := storage.Replay(filepath.Join(dir, "t", "wal"), nil, func(uint64, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if wst.Records != 0 {
			t.Fatalf("after %d reopens the WAL replays %d records a checkpoint covers", reopen, wst.Records)
		}
		if reopen == 3 {
			break
		}
		db, err := OpenDatabase(StorageOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := selectAll(t, db, "t"); !sameRows(want, got) {
			t.Fatal("reopened table diverged")
		}
		if got := db.tables["t"].store.(*fileStore).st.Version(); got != version {
			t.Fatalf("reopen %d moved the store to version %d from %d", reopen+1, got, version)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileStorageDropTableRemovesDir(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE gone (a INT) STORAGE file`); err != nil {
		t.Fatal(err)
	}
	tdir := filepath.Join(dir, "gone")
	if _, err := os.Stat(tdir); err != nil {
		t.Fatalf("table dir missing after create: %v", err)
	}
	if _, err := db.Exec(`DROP TABLE gone`); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tdir); !os.IsNotExist(err) {
		t.Fatalf("table dir survives DROP TABLE: %v", err)
	}
	// Reopen finds nothing to recover.
	db2, err := OpenDatabase(StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.TableNames(); len(got) != 0 {
		t.Fatalf("tables after drop+reopen = %v, want none", got)
	}
}

func TestFileStorageSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE t (a INT, b TEXT) STORAGE file`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A different column set against the stored schema is rejected.
	if _, _, err := openFileStore(filepath.Join(dir, "t"),
		[]Column{{Name: "a", Type: TypeInt}}, StorageOptions{CommitInterval: -1}.withDefaults()); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	// Case-insensitive match is accepted.
	fs, _, err := openFileStore(filepath.Join(dir, "t"),
		[]Column{{Name: "A", Type: TypeInt}, {Name: "B", Type: TypeText}}, StorageOptions{CommitInterval: -1}.withDefaults())
	if err != nil {
		t.Fatalf("case-insensitive schema rejected: %v", err)
	}
	fs.close()
}

// TestFileStorageAbortedCreation plants the wreckage of a crashed
// CREATE TABLE — a store that never reached its creation checkpoint —
// and verifies recovery clears it instead of failing.
func TestFileStorageAbortedCreation(t *testing.T) {
	dir := t.TempDir()
	tdir := filepath.Join(dir, "half")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := storage.OpenStore(filepath.Join(tdir, "rows.db"), storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte(schemaKey), encodeSchema([]Column{{Name: "a", Type: TypeInt}})); err != nil {
		t.Fatal(err)
	}
	// Close without checkpoint: version stays 0, nothing durable.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
	if err != nil {
		t.Fatalf("recovery failed on aborted creation: %v", err)
	}
	defer db.Close()
	if got := db.TableNames(); len(got) != 0 {
		t.Fatalf("tables = %v, want none", got)
	}
	if _, err := os.Stat(tdir); !os.IsNotExist(err) {
		t.Fatal("aborted creation dir not cleared")
	}
	// The name is reusable immediately.
	if _, err := db.Exec(`CREATE TABLE half (a INT) STORAGE file`); err != nil {
		t.Fatalf("recreate after aborted creation: %v", err)
	}
}

// TestFileStorageCrashDifferential injects write failures at a random
// byte budget, crashes the database mid-stream, reopens it clean and
// checks the recovered table equals the oracle after some statement
// prefix k — with k at least the last statement acknowledged by Sync.
// Statements are single-row so each is one WAL record (the durability
// unit is the row operation, not the statement).
func TestFileStorageCrashDifferential(t *testing.T) { crashDifferential(t, false) }

// TestFileStorageCrashDifferentialIndexed is the crash differential
// with indexes on the updated score column and the id column that
// selects rows: recovery rebuilds them, and after any torn write the
// reopened table's indexed reads equal its scans.
func TestFileStorageCrashDifferentialIndexed(t *testing.T) { crashDifferential(t, true) }

// crashDifferential runs a seeded statement stream against a
// file-backed table whose files fail after a byte budget, then checks
// the reopened table equals an in-memory oracle after some statement
// prefix no shorter than the last sync.
func crashDifferential(t *testing.T, indexed bool) {
	const statements = 120
	for trial := 0; trial < 16; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			budget := storage.NewFailBudget(int64(3000 + trial*1777))
			opts := StorageOptions{
				Dir:             dir,
				CommitInterval:  -1,
				CheckpointEvery: 25,
				OpenFile: func(path string) (storage.File, error) {
					inner, err := storage.OpenOSFile(path)
					if err != nil {
						return nil, err
					}
					return storage.NewFailFileShared(inner, budget), nil
				},
			}
			if indexed {
				// The table and its indexes are created outside the
				// budget, so every trial reopens them under it.
				setup, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				setup.MustExec(durabilitySchema + ` STORAGE file`)
				setup.MustExec(`CREATE INDEX t_id ON t (id)`)
				setup.MustExec(`CREATE INDEX t_score ON t (score)`)
				if err := setup.Close(); err != nil {
					t.Fatal(err)
				}
			}
			db, err := OpenDatabase(opts)
			if err != nil {
				t.Skipf("budget exhausted during open: %v", err)
			}
			if !indexed {
				if _, err := db.Exec(durabilitySchema + ` STORAGE file`); err != nil {
					db.Close()
					t.Skipf("budget exhausted during create: %v", err)
				}
			}

			// Oracle: snapshot of expected rows after each statement.
			mem := NewDatabase()
			if _, err := mem.Exec(durabilitySchema); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(trial)))
			snaps := [][]string{selectAll(t, mem, "t")}
			applied, synced := 0, 0
			crashedSQL := ""
			for i := 0; i < statements; i++ {
				var sql string
				switch r := rng.Intn(10); {
				case r < 7 || i == 0:
					sql = fmt.Sprintf(`INSERT INTO t (id, name, score, ok) VALUES (%d, 'n%d', %d.5, %v)`,
						i, i, rng.Intn(50), i%2 == 0)
				case r < 9:
					sql = fmt.Sprintf(`UPDATE t SET score = %d.25 WHERE id = %d`, rng.Intn(50), rng.Intn(i))
				default:
					sql = fmt.Sprintf(`DELETE FROM t WHERE id = %d`, rng.Intn(i))
				}
				if _, err := db.Exec(sql); err != nil {
					crashedSQL = sql
					break // crashed mid-statement
				}
				if _, err := mem.Exec(sql); err != nil {
					t.Fatalf("oracle rejected %q: %v", sql, err)
				}
				applied++
				snaps = append(snaps, selectAll(t, mem, "t"))
				if i%17 == 16 {
					if err := db.Sync(); err != nil {
						break
					}
					synced = applied
				}
			}
			db.Close() // errors expected; the crash already happened

			// The crashed statement's WAL record can be durable even
			// though the statement errored (write-ahead order), so its
			// effect is an acceptable recovery outcome too.
			if crashedSQL != "" {
				if _, err := mem.Exec(crashedSQL); err == nil {
					snaps = append(snaps, selectAll(t, mem, "t"))
				}
			}

			checkIndexes := func(db2 *Database) {
				if !indexed {
					return
				}
				if tbl, _ := db2.Table("t"); len(tbl.Indexes()) != 2 {
					t.Fatalf("recovered indexes = %v, want [id score]", tbl.Indexes())
				}
				checkIndexedReads(t, db2, "id")
				checkIndexedReads(t, db2, "score")
			}
			if !budget.Failed() {
				// Budget larger than the whole run: full equality.
				db2, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
				if err != nil {
					t.Fatalf("clean reopen: %v", err)
				}
				defer db2.Close()
				if got := selectAll(t, db2, "t"); !sameRows(snaps[applied], got) {
					t.Fatalf("no-crash reopen diverged at %d statements", applied)
				}
				checkIndexes(db2)
				return
			}

			db2, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: -1})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer db2.Close()
			got := selectAll(t, db2, "t")
			k := -1
			for i := synced; i < len(snaps); i++ {
				if sameRows(snaps[i], got) {
					k = i
					break
				}
			}
			if k < 0 {
				t.Fatalf("recovered state (%d rows) matches no statement prefix in [%d, %d]",
					len(got), synced, len(snaps)-1)
			}
			checkIndexes(db2)
			// Recovered database stays writable.
			if _, err := db2.Exec(`INSERT INTO t (id, name, score, ok) VALUES (7777, 'post', 0.5, TRUE)`); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
		})
	}
}

// TestFileStorageConcurrentInserts hammers one file-backed table from
// several goroutines (race detector food: the rowStore is confined
// under the table lock) and verifies the recovered row count.
func TestFileStorageConcurrentInserts(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDatabase(StorageOptions{Dir: dir, CommitInterval: time.Millisecond, NoSync: true, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE c (w INT, seq INT) STORAGE file`); err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO c (w, seq) VALUES (%d, %d)`, w, i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := selectAll(t, db, "c")
	if len(want) != workers*each {
		t.Fatalf("live rows = %d, want %d", len(want), workers*each)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDatabase(StorageOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := selectAll(t, db2, "c")
	if len(got) != workers*each {
		t.Fatalf("recovered rows = %d, want %d", len(got), workers*each)
	}
	// Same multiset: insertion interleaving is racy but every insert
	// must survive exactly once. Rowid order is insert order, so the
	// recovered sequence must match the pre-close table order exactly.
	if !sameRows(want, got) {
		t.Fatal("recovered order diverged from insert order")
	}
}

// blockableFile fails every write while armed, leaving reads (and the
// setup phase) untouched.
type blockableFile struct {
	storage.File
	fail *atomic.Bool
}

func (f *blockableFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fail.Load() {
		return 0, fmt.Errorf("minidb test: injected write failure")
	}
	return f.File.WriteAt(p, off)
}

// TestUpdateStorageErrorAtomic: a storage failure mid-UPDATE must
// reject the statement whole — the in-memory table keeps every
// pre-statement row, matching the delete path's write-ahead ordering,
// instead of applying a prefix of the matched rows.
func TestUpdateStorageErrorAtomic(t *testing.T) {
	var failWrites atomic.Bool
	db, err := OpenDatabase(StorageOptions{
		Dir:             t.TempDir(),
		CheckpointEvery: 8, // trip a (failing) auto-checkpoint mid-statement
		NoSync:          true,
		OpenFile: func(path string) (storage.File, error) {
			inner, err := storage.OpenOSFile(path)
			if err != nil {
				return nil, err
			}
			return &blockableFile{File: inner, fail: &failWrites}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b TEXT) STORAGE file`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v%d')`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := selectAll(t, db, "t")

	failWrites.Store(true)
	if _, err := db.Exec(`UPDATE t SET b = 'changed'`); err == nil {
		t.Fatal("UPDATE over failing storage reported success")
	}
	failWrites.Store(false)
	if got := selectAll(t, db, "t"); !sameRows(got, before) {
		t.Fatalf("mid-statement storage failure left a partially applied UPDATE:\ngot  %v\nwant %v", got, before)
	}
}
