package minidb

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/storage"
)

// Pluggable per-table storage. A table is either a plain in-memory
// heap (store == nil, the default) or mirrored into a durable file
// backend: every mutation is written ahead to a group-commit WAL and
// applied to a paged B+tree keyed by rowid; a checkpoint makes the
// tree durable (shadow-paged, torn-write safe) and truncates the WAL
// behind it. Recovery loads the checkpointed tree and replays the WAL
// tail — inserts and updates are idempotent Puts and deletes
// idempotent Deletes, so stale frames from a crash between checkpoint
// and truncation converge to the same state.

// rowStore is the durability seam behind a Table. All methods are
// called with the table lock held, so implementations see mutations
// in statement order and need no locking of their own.
type rowStore interface {
	insert(id uint64, row []Value) error
	updateRows(ids []uint64, rows [][]Value) error
	deleteRows(ids []uint64) error
	declareIndex(col string) error // persist an index on col
	sync() error                   // durability barrier: fsync the WAL tail
	checkpoint() error             // fold the WAL into the tree, truncate
	close() error
}

// StorageOptions configures a database's durable backend.
type StorageOptions struct {
	// Dir is the root directory; each file-backed table lives in a
	// subdirectory named after it.
	Dir string
	// CommitInterval is the WAL group-commit window per table.
	CommitInterval time.Duration
	// SegmentBytes is the WAL segment roll size.
	SegmentBytes int64
	// PoolPages is the per-table buffer-pool budget in pages.
	PoolPages int
	// CheckpointEvery folds the WAL into the tree after this many
	// mutations (default 4096; negative disables auto-checkpoints).
	CheckpointEvery int
	// NoSync skips fsyncs (benchmark baseline only).
	NoSync bool
	// OpenFile substitutes the file implementation (crash injection).
	OpenFile storage.OpenFileFunc
}

func (o StorageOptions) withDefaults() StorageOptions {
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	return o
}

// storageNames are the identifiers accepted by CREATE TABLE ... STORAGE.
const (
	storageMemory = "memory"
	storageFile   = "file"
)

// WAL record opcodes.
const (
	rowOpInsert = 1
	rowOpUpdate = 2
	rowOpDelete = 3
)

const (
	schemaKey   = "s"
	indexPrefix = 'i' // + lower-case column name: one key per indexed column
	rowKeyLen   = 9   // 'r' + big-endian rowid
	storeMagic  = "MDB1"
	storeAppLen = 4 + 8 + 8 // magic, nextID, ckptLSN
)

func rowIDKey(id uint64) []byte {
	k := make([]byte, rowKeyLen)
	k[0] = 'r'
	binary.BigEndian.PutUint64(k[1:], id)
	return k
}

// encodeRow serializes a row: uvarint column count, then per value a
// kind byte and payload. Timestamps keep instant and zone offset so a
// reloaded value renders identically.
func encodeRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindBool:
			dst = append(dst, byte(v.n))
		case KindInt:
			dst = binary.AppendVarint(dst, v.n)
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.n))
		case KindText:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case KindTime:
			dst = binary.AppendVarint(dst, v.t.UnixNano())
			_, off := v.t.Zone()
			dst = binary.AppendVarint(dst, int64(off))
		}
	}
	return dst
}

func decodeRow(b []byte) ([]Value, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("minidb: short row record")
	}
	b = b[w:]
	row := make([]Value, n)
	for i := range row {
		if len(b) == 0 {
			return nil, fmt.Errorf("minidb: short row record")
		}
		kind := Kind(b[0])
		b = b[1:]
		switch kind {
		case KindNull:
			row[i] = Null()
		case KindBool:
			if len(b) == 0 {
				return nil, fmt.Errorf("minidb: short row record")
			}
			row[i] = Bool(b[0] != 0)
			b = b[1:]
		case KindInt:
			v, w := binary.Varint(b)
			if w <= 0 {
				return nil, fmt.Errorf("minidb: short row record")
			}
			row[i] = Int(v)
			b = b[w:]
		case KindFloat:
			if len(b) < 8 {
				return nil, fmt.Errorf("minidb: short row record")
			}
			row[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case KindText:
			n, w := binary.Uvarint(b)
			if w <= 0 || uint64(len(b)-w) < n {
				return nil, fmt.Errorf("minidb: short row record")
			}
			row[i] = Text(string(b[w : w+int(n)]))
			b = b[w+int(n):]
		case KindTime:
			ns, w1 := binary.Varint(b)
			if w1 <= 0 {
				return nil, fmt.Errorf("minidb: short row record")
			}
			b = b[w1:]
			off, w2 := binary.Varint(b)
			if w2 <= 0 {
				return nil, fmt.Errorf("minidb: short row record")
			}
			b = b[w2:]
			t := time.Unix(0, ns)
			if off == 0 {
				t = t.UTC()
			} else {
				t = t.In(time.FixedZone("", int(off)))
			}
			row[i] = Time(t)
		default:
			return nil, fmt.Errorf("minidb: unknown value kind %d in row record", kind)
		}
	}
	return row, nil
}

func encodeSchema(cols []Column) []byte {
	b := binary.AppendUvarint(nil, uint64(len(cols)))
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(len(c.Name)))
		b = append(b, c.Name...)
		b = append(b, byte(c.Type))
	}
	return b
}

func decodeSchema(b []byte) ([]Column, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, fmt.Errorf("minidb: short schema record")
	}
	b = b[w:]
	cols := make([]Column, n)
	for i := range cols {
		ln, w := binary.Uvarint(b)
		if w <= 0 || uint64(len(b)-w) < ln+1 {
			return nil, fmt.Errorf("minidb: short schema record")
		}
		cols[i].Name = string(b[w : w+int(ln)])
		cols[i].Type = ColumnType(b[w+int(ln)])
		b = b[w+int(ln)+1:]
	}
	return cols, nil
}

// fileStore is the durable backend of one table.
type fileStore struct {
	dir     string
	st      *storage.Store
	w       *storage.WAL
	buf     []byte
	recs    int // mutations since the last checkpoint
	every   int // auto-checkpoint threshold; <0 disables
	nextID  uint64
	ckptLSN uint64 // highest WAL LSN covered by the checkpointed tree
}

// appendWAL writes one record ahead of the tree mutation.
func (f *fileStore) appendWAL(op byte, id uint64, row []Value) error {
	f.buf = append(f.buf[:0], op)
	f.buf = binary.AppendUvarint(f.buf, id)
	if row != nil {
		f.buf = encodeRow(f.buf, row)
	}
	_, err := f.w.Append(f.buf)
	return err
}

func (f *fileStore) bump() error {
	f.recs++
	if f.every > 0 && f.recs >= f.every {
		return f.checkpoint()
	}
	return nil
}

func (f *fileStore) insert(id uint64, row []Value) error {
	if err := f.appendWAL(rowOpInsert, id, row); err != nil {
		return err
	}
	if err := f.st.Put(rowIDKey(id), encodeRow(nil, row)); err != nil {
		return err
	}
	if id >= f.nextID {
		f.nextID = id + 1
	}
	return f.bump()
}

func (f *fileStore) updateRows(ids []uint64, rows [][]Value) error {
	for i, id := range ids {
		if err := f.appendWAL(rowOpUpdate, id, rows[i]); err != nil {
			return err
		}
		if err := f.st.Put(rowIDKey(id), encodeRow(nil, rows[i])); err != nil {
			return err
		}
		f.recs++
	}
	if f.every > 0 && f.recs >= f.every {
		return f.checkpoint()
	}
	return nil
}

func (f *fileStore) deleteRows(ids []uint64) error {
	for _, id := range ids {
		if err := f.appendWAL(rowOpDelete, id, nil); err != nil {
			return err
		}
		if _, err := f.st.Delete(rowIDKey(id)); err != nil {
			return err
		}
		f.recs++
	}
	if f.every > 0 && f.recs >= f.every {
		return f.checkpoint()
	}
	return nil
}

// declareIndex persists an index on col the way the schema is: a key
// in the tree, made durable by a checkpoint before the index is used.
func (f *fileStore) declareIndex(col string) error {
	if err := f.st.Put(append([]byte{indexPrefix}, col...), nil); err != nil {
		return err
	}
	return f.checkpoint()
}

func (f *fileStore) sync() error { return f.w.Sync() }

// checkpoint makes the tree durable and truncates the WAL behind it.
// The WAL is synced and rolled first, so every record sits in a closed
// segment and the truncation deletes them all: a reopen reads no frame
// the checkpoint covers. The cut LSN is captured before the store
// checkpoint: every WAL record at or below it is already applied to
// the tree (mutations write ahead under the table lock), so nothing
// covered is lost. The cut is persisted in the meta blob; recovery
// skips replaying records at or below it, because re-applying an old
// record over the newer checkpointed tree would regress values the
// tree already carries.
func (f *fileStore) checkpoint() error {
	if err := f.w.Sync(); err != nil {
		return err
	}
	if err := f.w.Roll(); err != nil {
		return err
	}
	lsnCut := f.w.LastLSN()
	app := make([]byte, storeAppLen)
	copy(app, storeMagic)
	binary.LittleEndian.PutUint64(app[4:], f.nextID)
	binary.LittleEndian.PutUint64(app[12:], lsnCut)
	if err := f.st.Checkpoint(app); err != nil {
		return err
	}
	f.ckptLSN = lsnCut
	if err := f.w.TruncateBefore(lsnCut + 1); err != nil {
		return err
	}
	f.recs = 0
	return nil
}

func (f *fileStore) close() error {
	err := f.w.Close()
	if e := f.st.Close(); err == nil {
		err = e
	}
	return err
}

// recovered is a file-backed table's state as openFileStore found it.
type recovered struct {
	cols    []Column
	rows    [][]Value // in rowid order
	ids     []uint64
	indexes []string // indexed column names, lower case
}

// openFileStore opens (creating if needed) the durable backend for
// one table, checking cols (nil on reopen) against the stored schema,
// and returns the store with the table's recovered state.
func openFileStore(dir string, cols []Column, o StorageOptions) (*fileStore, *recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, err := storage.OpenStore(filepath.Join(dir, "rows.db"), storage.Options{
		PoolPages: o.PoolPages,
		OpenFile:  o.OpenFile,
		NoSync:    o.NoSync,
	})
	if err != nil {
		return nil, nil, err
	}
	f := &fileStore{dir: dir, st: st, every: o.CheckpointEvery, nextID: 1}
	fail := func(err error) (*fileStore, *recovered, error) {
		if f.w != nil {
			f.w.Close()
		}
		st.Close()
		return nil, nil, err
	}
	if app := st.App(); len(app) > 0 {
		if len(app) != storeAppLen || string(app[:4]) != storeMagic {
			return fail(fmt.Errorf("minidb: unrecognized table meta blob (%d bytes)", len(app)))
		}
		f.nextID = binary.LittleEndian.Uint64(app[4:])
		f.ckptLSN = binary.LittleEndian.Uint64(app[12:])
	}

	// Schema: verify against the stored definition, or persist ours on
	// first creation (made durable by the creation checkpoint below).
	fresh := false
	if sv, ok, err := st.Get([]byte(schemaKey)); err != nil {
		return fail(err)
	} else if ok {
		stored, err := decodeSchema(sv)
		if err != nil {
			return fail(err)
		}
		if cols != nil && !sameSchema(stored, cols) {
			return fail(fmt.Errorf("minidb: stored schema for %s does not match CREATE TABLE", filepath.Base(dir)))
		}
		cols = stored
	} else {
		if cols == nil {
			return fail(fmt.Errorf("minidb: %s holds no schema", dir))
		}
		if err := st.Put([]byte(schemaKey), encodeSchema(cols)); err != nil {
			return fail(err)
		}
		fresh = true
	}

	// Index declarations: each must name a column of the schema.
	rec := &recovered{cols: cols}
	var declErr error
	err = st.Scan([]byte{indexPrefix}, []byte{indexPrefix + 1}, func(k, _ []byte) bool {
		col := string(k[1:])
		if !hasColumn(cols, col) {
			declErr = fmt.Errorf("minidb: index declared on unknown column %q", col)
			return false
		}
		rec.indexes = append(rec.indexes, col)
		return true
	})
	if err == nil {
		err = declErr
	}
	if err != nil {
		return fail(err)
	}

	// Checkpointed rows, then the WAL tail on top (idempotent).
	byID := make(map[uint64][]Value)
	var decErr error
	err = st.Scan([]byte{'r'}, []byte{'r' + 1}, func(k, v []byte) bool {
		if len(k) != rowKeyLen {
			decErr = fmt.Errorf("minidb: malformed row key (%d bytes)", len(k))
			return false
		}
		row, err := decodeRow(v)
		if err != nil {
			decErr = err
			return false
		}
		byID[binary.BigEndian.Uint64(k[1:])] = row
		return true
	})
	if err == nil {
		err = decErr
	}
	if err != nil {
		return fail(err)
	}

	// Replay the WAL tail beyond the checkpoint cut, applying each
	// record to the tree as well so the recovery checkpoint below
	// persists it. Records at or below the cut are already inside the
	// checkpointed tree — re-applying them would overwrite values the
	// tree carries from records the crash lost out of the WAL.
	walDir := filepath.Join(dir, "wal")
	replayed := 0
	_, err = storage.Replay(walDir, o.OpenFile, func(lsn uint64, p []byte) error {
		if lsn <= f.ckptLSN {
			return nil
		}
		if len(p) < 2 {
			return fmt.Errorf("minidb: short WAL record")
		}
		op := p[0]
		id, w := binary.Uvarint(p[1:])
		if w <= 0 {
			return fmt.Errorf("minidb: short WAL record")
		}
		switch op {
		case rowOpInsert, rowOpUpdate:
			row, err := decodeRow(p[1+w:])
			if err != nil {
				return err
			}
			byID[id] = row
			if err := st.Put(rowIDKey(id), encodeRow(nil, row)); err != nil {
				return err
			}
		case rowOpDelete:
			delete(byID, id)
			if _, err := st.Delete(rowIDKey(id)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("minidb: unknown WAL opcode %d", op)
		}
		if id >= f.nextID {
			f.nextID = id + 1
		}
		replayed++
		return nil
	})
	if err != nil {
		return fail(err)
	}

	wo := storage.WALOptions{
		SegmentBytes:   o.SegmentBytes,
		CommitInterval: o.CommitInterval,
		NoSync:         o.NoSync,
		OpenFile:       o.OpenFile,
	}
	if f.w, err = storage.OpenWAL(walDir, wo); err != nil {
		return fail(err)
	}
	// A checkpoint can outrun WAL durability (its cut counts assigned
	// LSNs, some of which a crash may have kept from disk). New records
	// would then reuse LSNs below the cut and be skipped by the next
	// recovery — so clear the WAL and restart its numbering from zero;
	// the reset cut is persisted by the recovery checkpoint below. The
	// WAL resumes from its last segment's name, which, after a
	// checkpoint's roll, names the LSN past the cut with no record.
	cleared := false
	if f.w.LastLSN() < f.ckptLSN {
		f.w.Close()
		f.w = nil
		if err := os.RemoveAll(walDir); err != nil {
			return fail(err)
		}
		if f.w, err = storage.OpenWAL(walDir, wo); err != nil {
			return fail(err)
		}
		cleared = true
	}

	ids := make([]uint64, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rec.ids = ids
	rec.rows = make([][]Value, len(ids))
	for i, id := range ids {
		rec.rows[i] = byID[id]
		if len(rec.rows[i]) != len(cols) {
			return fail(fmt.Errorf("minidb: recovered row has %d values, schema has %d columns", len(rec.rows[i]), len(cols)))
		}
	}

	if fresh || cleared || replayed > 0 {
		// Checkpoint on creation (the schema must survive a crash with
		// no data yet), after recovery (the replayed tail is already
		// applied to the tree above; fold it in and shrink the WAL so
		// recovery work never accumulates across restarts), and after a
		// WAL reset (the zeroed cut must become durable).
		f.recs = replayed
		if err := f.checkpoint(); err != nil {
			return fail(err)
		}
	}
	// The table serves reads from memory: the recovery scan's pages
	// would only repeat its rows.
	st.DropCache()
	return f, rec, nil
}

// hasColumn reports whether cols has a column whose lower-case name
// is name.
func hasColumn(cols []Column, name string) bool {
	for _, c := range cols {
		if strings.ToLower(c.Name) == name {
			return true
		}
	}
	return false
}

func sameSchema(a, b []Column) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i].Name, b[i].Name) || a[i].Type != b[i].Type {
			return false
		}
	}
	return true
}

// AttachStorage enables the durable file backend for this database:
// tables created with STORAGE file persist under o.Dir, and existing
// file-backed tables found there are reopened (rows recovered from
// their checkpointed tree plus WAL tail). Call before creating file
// tables; plain in-memory tables are unaffected.
func (db *Database) AttachStorage(o StorageOptions) error {
	if o.Dir == "" {
		return fmt.Errorf("minidb: AttachStorage needs a directory")
	}
	o = o.withDefaults()
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return err
	}
	db.mu.Lock()
	db.storage = &o
	db.mu.Unlock()

	des, err := os.ReadDir(o.Dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(o.Dir, de.Name(), "rows.db")); err != nil {
			continue
		}
		if _, err := db.reopenTable(de.Name(), o); err != nil {
			return fmt.Errorf("minidb: reopen table %q: %w", de.Name(), err)
		}
	}
	return nil
}

// OpenDatabase creates a database with the durable backend attached,
// recovering any file-backed tables already present in o.Dir.
func OpenDatabase(o StorageOptions) (*Database, error) {
	db := NewDatabase()
	if err := db.AttachStorage(o); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *Database) reopenTable(name string, o StorageOptions) (*Table, error) {
	dir := filepath.Join(o.Dir, name)
	fs, rec, err := openFileStore(dir, nil, o)
	if err != nil {
		// A store that never reached its creation checkpoint is the
		// wreckage of a crashed CREATE TABLE: nothing durable was ever
		// promised, so clear it instead of failing recovery.
		if aborted, aerr := abortedCreation(dir, o); aerr == nil && aborted {
			return nil, os.RemoveAll(dir)
		}
		return nil, err
	}
	t, err := newTable(name, rec.cols)
	if err != nil {
		fs.close()
		return nil, err
	}
	return db.attach(t, fs, rec)
}

// attach gives t the store and the state recovered from it, rebuilds
// the declared indexes, and publishes t.
func (db *Database) attach(t *Table, fs *fileStore, rec *recovered) (*Table, error) {
	t.rows, t.ids, t.store, t.nextID = rec.rows, rec.ids, fs, fs.nextID
	for _, col := range rec.indexes {
		t.addIndex(col, t.idx[col])
	}
	key := strings.ToLower(t.name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		fs.close()
		return nil, fmt.Errorf("minidb: table %q already exists", t.name)
	}
	db.tables[key] = t
	db.schemaGen.Add(1)
	return t, nil
}

// abortedCreation reports whether dir holds a store that never reached
// its creation checkpoint: version 0 with an empty WAL. CREATE TABLE
// checkpoints before returning, so such a store committed nothing —
// it is the wreckage of a crashed creation, safe to discard.
func abortedCreation(dir string, o StorageOptions) (bool, error) {
	st, err := storage.OpenStore(filepath.Join(dir, "rows.db"), storage.Options{OpenFile: o.OpenFile, NoSync: true})
	if err != nil {
		return false, err
	}
	v := st.Version()
	st.Close()
	if v != 0 {
		return false, nil
	}
	wst, err := storage.Replay(filepath.Join(dir, "wal"), o.OpenFile, func(uint64, []byte) error { return nil })
	if err != nil {
		return false, err
	}
	return wst.Records == 0, nil
}

// CreateTableStorage creates a table on the named backend: "" or
// "memory" for the in-memory heap, "file" for the durable backend
// (requires AttachStorage).
func (db *Database) CreateTableStorage(name string, cols []Column, backend string) (*Table, error) {
	switch strings.ToLower(backend) {
	case "", storageMemory:
		return db.CreateTable(name, cols)
	case storageFile:
	default:
		return nil, fmt.Errorf("minidb: unknown storage backend %q", backend)
	}
	db.mu.RLock()
	o := db.storage
	db.mu.RUnlock()
	if o == nil {
		return nil, fmt.Errorf("minidb: STORAGE file requires AttachStorage")
	}
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	fs, rec, err := openFileStore(filepath.Join(o.Dir, strings.ToLower(name)), cols, *o)
	if err != nil {
		return nil, err
	}
	return db.attach(t, fs, rec)
}

// Sync blocks until every mutation so far on file-backed tables is
// durable in their WALs (one group-commit fsync per table, shared by
// all pending records).
func (db *Database) Sync() error {
	for _, t := range db.snapshotTables() {
		t.mu.Lock()
		var err error
		if t.store != nil {
			err = t.store.sync()
		}
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint folds every file-backed table's WAL into its tree and
// truncates; recovery afterwards reads the tree alone.
func (db *Database) Checkpoint() error {
	for _, t := range db.snapshotTables() {
		t.mu.Lock()
		var err error
		if t.store != nil {
			err = t.store.checkpoint()
		}
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close releases every file-backed table's store after a final WAL
// sync. The database remains usable for in-memory tables only.
func (db *Database) Close() error {
	var first error
	for _, t := range db.snapshotTables() {
		t.mu.Lock()
		if t.store != nil {
			if err := t.store.sync(); err != nil && first == nil {
				first = err
			}
			if err := t.store.close(); err != nil && first == nil {
				first = err
			}
			t.store = nil
		}
		t.mu.Unlock()
	}
	return first
}

func (db *Database) snapshotTables() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
