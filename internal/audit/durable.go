package audit

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/storage"
)

// Durable extends the in-memory log into a recovery log. Two
// artifacts live in one directory:
//
//   - wal/ — a group-commit WAL of binary (seq, entry) records
//     covering everything appended since the last checkpoint. Appends
//     flow into it through the log's asynchronous sink (sink.go); the
//     WAL's single fsync per commit window is shared by the whole
//     batch.
//   - index.db — a storage.Store B+tree holding every entry at or
//     below the checkpoint cut, and nothing else holds those entries:
//     once a cut commits, the shards drop them. Each entry is the
//     value under its (time, status, seq) key. Time-ordered reads and
//     retention are key ranges; append-order reads are one scan and a
//     sort by seq (coldRun). The store's meta blob attests the cut,
//     the entry count and the log epoch, so one shadow-paged meta swap
//     commits a checkpoint and a retention expiry alike.
//
// The log reads the checkpointed prefix through its cold side (the
// Log.cold pointer to this store): every entry reader merges it with
// the shards' in-memory tail under mu's shared side, and cuts take it
// exclusively, so a concurrent cut never shows an entry twice or not
// at all. The refinement index stays in
// memory: it is O(groups).
//
// Recovery folds index.db straight into the per-shard index without
// keeping its records, loads the WAL tail, and concludes with a
// checkpoint that re-persists the tail, so the WAL never grows across
// restarts. While the store runs, the sink wakes a background
// checkpointer after every checkpointBytes of WAL, so neither the WAL
// nor the shards grow past that between cuts. JSONL is an export edge
// only: WriteJSONL of Log().Snapshot() exports a copy.
type Durable struct {
	log   *Log
	store *storage.Store
	wal   *storage.WAL
	onErr func(error)

	mu      sync.RWMutex // cuts and retention hold it, cold reads share it
	ckptSeq uint64       // entries with seq <= ckptSeq are in the index, and only there
	count   uint64       // entries in the index

	// The background checkpointer: the sink sends on wake, Close
	// closes quit (once) and waits for done.
	wake     chan struct{}
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once
}

// checkpointBytes is the WAL volume after which the sink wakes the
// background checkpointer: the size of the WAL's own append buffer.
// It bounds the un-checkpointed tail, and with it the shards, to a
// few tens of thousands of entries.
const checkpointBytes = 4 << 20

// DurableOptions tunes OpenDurable. The zero value selects defaults.
type DurableOptions struct {
	// CommitInterval is the WAL group-commit window (storage.WALOptions).
	CommitInterval time.Duration
	// SegmentBytes is the WAL segment roll size.
	SegmentBytes int64
	// PoolPages is the index store's buffer-pool budget in pages.
	PoolPages int
	// NoSync skips fsyncs everywhere (benchmark baseline only).
	NoSync bool
	// OpenFile substitutes the file implementation (crash injection).
	OpenFile storage.OpenFileFunc
	// OnErr receives asynchronous sink/WAL errors (may be nil).
	OnErr func(error)
}

// RecoveryStats reports what OpenDurable rebuilt.
type RecoveryStats struct {
	// CheckpointEntries were loaded from the index store's checkpoint.
	CheckpointEntries int
	// WALEntries were replayed from the WAL tail.
	WALEntries int
	// WALSegments is the number of WAL segment files read.
	WALSegments int
	// TornTail reports a torn frame at the end of the WAL (the
	// expected wreckage of a crash mid-flush), truncated on reopen.
	TornTail bool
	// IndexGroups is the number of refinement-index groups rebuilt.
	IndexGroups int
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// app blob layout: "ADU3" + ckptSeq + count + drop word + epoch. The
// drop word counted entries a lossy sink policy once skipped; it is
// written as zero and ignored on read. Stores that also kept a JSONL
// checkpoint wrote "ADU1" (ckptSeq + JSONL length + count + drop word
// + epoch) or "ADU2" (the same plus a flags word); their index already
// held every checkpointed entry, so they decode with the JSONL length
// and the flags ignored.
const (
	appMagic = "ADU3"
	appLen   = 4 + 8*4
)

func encodeApp(ckptSeq, count, epoch uint64) []byte {
	b := make([]byte, appLen)
	copy(b[0:4], appMagic)
	binary.LittleEndian.PutUint64(b[4:], ckptSeq)
	binary.LittleEndian.PutUint64(b[12:], count)
	binary.LittleEndian.PutUint64(b[28:], epoch)
	return b
}

func decodeApp(b []byte) (ckptSeq, count, epoch uint64, err error) {
	var off [3]int // byte offsets of ckptSeq, count, epoch
	switch magic := string(b[:min(len(b), 4)]); {
	case len(b) == 0:
		return 0, 0, 0, nil
	case len(b) == appLen && magic == appMagic:
		off = [3]int{4, 12, 28}
	case len(b) == 4+8*5 && magic == "ADU1", len(b) == 4+8*6 && magic == "ADU2":
		off = [3]int{4, 20, 36}
	default:
		return 0, 0, 0, fmt.Errorf("audit: unrecognized durable meta blob (%d bytes)", len(b))
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[off[i]:]) }
	return u(0), u(1), u(2), nil
}

// appendStamped encodes one (seq, entry) pair: the WAL record format
// and the index value format, so the checkpoint's only copy of an
// entry. The timestamp keeps its instant and its zone offset, which is
// all RFC3339 output depends on, so a recovered entry re-encodes to
// byte-identical JSON.
func appendStamped(dst []byte, seq uint64, e *Entry) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendVarint(dst, e.Time.UnixNano())
	_, off := e.Time.Zone()
	dst = binary.AppendVarint(dst, int64(off))
	dst = binary.AppendUvarint(dst, uint64(e.Op))
	dst = binary.AppendUvarint(dst, uint64(e.Status))
	for _, s := range [...]string{e.User, e.Data, e.Purpose, e.Authorized, e.Site, e.Reason} {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// rawRecord is a durable record parsed in place: its strings are
// subslices of the record bytes.
type rawRecord struct {
	seq        uint64
	ns, off    int64 // Time.UnixNano() and zone offset in seconds
	op, status uint8
	strs       [6][]byte // user, data, purpose, authorized, site, reason
}

// entry copies the record out into an Entry.
func (rr *rawRecord) entry() Entry {
	e := Entry{Op: Op(rr.op), Status: Status(rr.status)}
	if rr.off == 0 {
		e.Time = time.Unix(0, rr.ns).UTC()
	} else {
		e.Time = time.Unix(0, rr.ns).In(time.FixedZone("", int(rr.off)))
	}
	for i, p := range [...]*string{&e.User, &e.Data, &e.Purpose, &e.Authorized, &e.Site, &e.Reason} {
		*p = string(rr.strs[i])
	}
	return e
}

// decodeStamped is appendStamped's strict inverse: a record must hold
// exactly one entry, with an op and a status Validate accepts.
func decodeStamped(b []byte) (uint64, Entry, error) {
	var rr rawRecord
	if err := parseStamped(b, &rr); err != nil {
		return 0, Entry{}, err
	}
	return rr.seq, rr.entry(), nil
}

// parseStamped is decodeStamped without the copy: it checks the same
// rules and leaves the strings in b.
func parseStamped(b []byte, rr *rawRecord) error {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	nextSigned := func() (int64, bool) {
		v, n := binary.Varint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	seq, ok := next()
	ns, ok2 := nextSigned()
	off, ok3 := nextSigned()
	op, ok4 := next()
	st, ok5 := next()
	if !ok || !ok2 || !ok3 || !ok4 || !ok5 {
		return fmt.Errorf("audit: short durable record header")
	}
	if op > uint64(Allow) || st > uint64(Regular) {
		return fmt.Errorf("audit: durable record has op %d, status %d", op, st)
	}
	*rr = rawRecord{seq: seq, ns: ns, off: off, op: uint8(op), status: uint8(st)}
	for i := range rr.strs {
		n, ok := next()
		if !ok || uint64(len(b)) < n {
			return fmt.Errorf("audit: short durable record string")
		}
		rr.strs[i] = b[:n]
		b = b[n:]
	}
	if len(b) != 0 {
		return fmt.Errorf("audit: %d trailing bytes after durable record", len(b))
	}
	return nil
}

// fromRaw interns a parsed record's columns and zone into a record.
func (d *dict) fromRaw(rr *rawRecord) record {
	r := record{seq: rr.seq, ns: rr.ns, zone: d.zoneOffset(int(rr.off)), op: rr.op, status: rr.status}
	for i, id := range [...]*uint32{&r.user, &r.data, &r.purpose, &r.authorized, &r.site, &r.reason} {
		*id = d.internBytes(rr.strs[i])
	}
	return r
}

// load decodes a WAL tail record straight into its shard, under the
// sequence number it was stored with, and folds it into the shard's
// index. Strings are interned from the record bytes, so only a value
// the shard has not seen yet allocates, and the entry must pass
// Validate. The log's counter is raised to the record's seq. The log
// is not shared before recovery ends.
func (l *Log) load(rr *rawRecord) error {
	sh := l.shards[route(rr.strs[0], rr.strs[1], rr.strs[2])&l.mask]
	r := sh.fromRaw(rr)
	e := sh.entry(&r)
	if err := e.Validate(); err != nil {
		return err
	}
	sh.put(r)
	if r.seq > l.seq.Load() {
		l.seq.Store(r.seq)
	}
	return nil
}

// coldRecord interns a checkpointed record into the shard for folding,
// without keeping it: only the columns the index keys by (user, data,
// purpose, authorized) and the zone are interned. The entry must pass
// Validate. The caller holds the shard's write lock or owns the shard.
func (s *shard) coldRecord(rr *rawRecord) (record, error) {
	r := record{seq: rr.seq, ns: rr.ns, zone: s.zoneOffset(int(rr.off)), op: rr.op, status: rr.status,
		user: s.internBytes(rr.strs[0]), data: s.internBytes(rr.strs[1]),
		purpose: s.internBytes(rr.strs[2]), authorized: s.internBytes(rr.strs[3])}
	e := s.entry(&r)
	return r, e.Validate()
}

// indexKey builds the composite secondary-index key: big-endian
// sign-flipped unix nanoseconds, status byte, big-endian sequence
// number — so byte order is (time, status, seq) order, and an 8-byte
// time prefix is a valid exclusive scan bound for "everything before
// this instant".
const indexKeyLen = 8 + 1 + 8

func indexKey(t time.Time, st Status, seq uint64) []byte {
	k := make([]byte, indexKeyLen)
	binary.BigEndian.PutUint64(k[0:8], uint64(t.UnixNano())^(1<<63))
	k[8] = byte(st)
	binary.BigEndian.PutUint64(k[9:], seq)
	return k
}

// indexTimeBound is the 8-byte prefix bounding all keys with
// timestamp strictly before t (exclusive upper bound) or at/after t
// (inclusive lower bound).
func indexTimeBound(t time.Time) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint64(k, uint64(t.UnixNano())^(1<<63))
	return k
}

// indexKeyTime returns the nanoseconds and status a key holds.
func indexKeyTime(k []byte) (int64, Status) {
	return int64(binary.BigEndian.Uint64(k[0:8]) ^ (1 << 63)), Status(k[8])
}

// indexKeySeq returns the sequence number a key holds.
func indexKeySeq(k []byte) uint64 { return binary.BigEndian.Uint64(k[9:]) }

// OpenDurable opens (creating if needed) the durable audit store in
// dir for the named site. Recovery rebuilds the in-memory index from
// the index store's checkpoint and the log's tail from the WAL; no
// other file in dir is read.
func OpenDurable(site, dir string, o DurableOptions) (*Durable, RecoveryStats, error) {
	start := time.Now()
	var rs RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rs, err
	}
	st, err := storage.OpenStore(filepath.Join(dir, "index.db"), storage.Options{
		PoolPages: o.PoolPages,
		OpenFile:  o.OpenFile,
		NoSync:    o.NoSync,
	})
	if err != nil {
		return nil, rs, err
	}
	d := &Durable{store: st, onErr: o.OnErr}
	fail := func(err error) (*Durable, RecoveryStats, error) {
		if d.wal != nil {
			d.wal.Close()
		}
		st.Close()
		return nil, rs, err
	}
	var epoch uint64
	d.ckptSeq, d.count, epoch, err = decodeApp(st.App())
	if err != nil {
		return fail(err)
	}

	d.log = NewLog(site)
	d.log.cold = d
	if st.Version() > 0 {
		if err := d.loadCheckpoint(); err != nil {
			return fail(err)
		}
		rs.CheckpointEntries = int(d.count)
		// The scan read every page once; later work touches a few
		// (checkpoints append at the newest keys), so do not keep the
		// pool filled with the rest.
		st.DropCache()
	}

	// WAL tail: everything with seq > ckptSeq is newer than the last
	// checkpoint and is loaded; anything at or below is a stale frame
	// from a crash between checkpoint and truncation, checked but not
	// loaded.
	walDir := filepath.Join(dir, "wal")
	var rr rawRecord
	var stale dict // checks stale frames without a string copy per frame
	wst, err := storage.Replay(walDir, o.OpenFile, func(lsn uint64, p []byte) error {
		if len(p) > 0 && p[0] == 0x00 {
			// A drop marker, written by stores whose sink could skip
			// entries. No entry record starts with 0x00: its leading
			// uvarint is a sequence number >= 1.
			return nil
		}
		derr := parseStamped(p, &rr)
		switch {
		case derr != nil:
		case rr.seq <= d.ckptSeq:
			r := stale.fromRaw(&rr)
			e := stale.entry(&r)
			derr = e.Validate()
		default:
			if derr = d.log.load(&rr); derr == nil {
				rs.WALEntries++
			}
		}
		if derr != nil {
			return fmt.Errorf("audit: WAL record %d: %w", lsn, derr)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	rs.WALSegments = wst.Segments
	rs.TornTail = wst.TornTail
	if d.ckptSeq > d.log.seq.Load() {
		// Sequence gaps (expired entries) at the cut: resume numbering
		// past it so new seqs stay above every stored one. The loads
		// already raised the counter past every WAL record, so the
		// concluding checkpoint's cut covers them all and none is
		// replayed again by the next open.
		d.log.seq.Store(d.ckptSeq)
	}

	d.wal, err = storage.OpenWAL(walDir, storage.WALOptions{
		SegmentBytes:   o.SegmentBytes,
		CommitInterval: o.CommitInterval,
		NoSync:         o.NoSync,
		OpenFile:       o.OpenFile,
	})
	if err != nil {
		return fail(err)
	}

	// Epoch continuity: a clean restart (no tail, no wreckage) rebuilds
	// the log byte-for-byte, so restoring the checkpointed epoch keeps
	// old Delta cursors valid. Any recovery that changed what a cursor
	// would have seen — a replayed tail or a torn WAL — advances the
	// epoch so stale cursors mismatch and their consumers (mining
	// sessions included) resync instead of silently skipping recovered
	// entries.
	recovered := rs.WALEntries > 0 || rs.TornTail
	if recovered {
		epoch++
	}
	d.log.epoch.Store(epoch)
	if recovered || d.log.seq.Load() > d.ckptSeq {
		// Conclude recovery with a checkpoint: the tail is re-persisted
		// into the index, and the WAL shrinks back to (almost) nothing,
		// so recovery work never accumulates.
		if err := d.cutLocked(0); err != nil {
			return fail(err)
		}
	}

	d.wake = make(chan struct{}, 1)
	d.quit = make(chan struct{})
	d.done = make(chan struct{})
	go d.checkpointer()
	d.log.attachWAL(d.wal, o.OnErr, d.wake)
	rs.IndexGroups = len(d.log.Groups())
	rs.Elapsed = time.Since(start)
	return d, rs, nil
}

// checkpointer is the background checkpoint goroutine: one cut per
// wakeup from the sink, until Close.
func (d *Durable) checkpointer() {
	defer close(d.done)
	for {
		select {
		case <-d.quit:
			return
		case <-d.wake:
			if err := d.Checkpoint(); err != nil {
				d.report(err)
			}
		}
	}
}

// report hands an error no caller waits for to OnErr.
func (d *Durable) report(err error) {
	if d.onErr != nil {
		d.onErr(err)
	}
}

// loadCheckpoint folds the checkpointed prefix into the log's shard
// indexes, keeping none of its records, and raises the log's counter
// to its highest seq. The count must match the one the meta blob
// attests.
func (d *Durable) loadCheckpoint() error {
	n, maxSeq, err := d.foldIndex(d.log.shards)
	if err != nil {
		return err
	}
	if n != d.count {
		return fmt.Errorf("audit: index holds %d entries, checkpoint attests %d", n, d.count)
	}
	if maxSeq > d.log.seq.Load() {
		d.log.seq.Store(maxSeq)
	}
	return nil
}

// foldBatch is how many index records foldIndex buffers before it
// folds them into the index shard by shard: one shard's groups at a
// time stay in cache, where folding in key order would touch every
// shard's per record.
const foldBatch = 1 << 16

// foldIndex folds every checkpointed entry in the index into shards —
// the log's own during recovery, fresh ones when retention rebuilds
// the index — routed as appends are, keeping no record. Entries above
// the cut, which a failed cut can leave in the working tree while the
// shards still hold them, are skipped. It returns the number of
// entries folded and the highest seq.
func (d *Durable) foldIndex(shards []*shard) (n, maxSeq uint64, err error) {
	mask := uint64(len(shards) - 1)
	pending := make([][]record, len(shards))
	buffered := 0
	flush := func() {
		for i, p := range pending {
			for j := range p {
				shards[i].indexLocked(&p[j])
			}
			pending[i] = p[:0]
		}
		buffered = 0
	}
	var rr rawRecord
	var bad error
	err = d.store.Scan(nil, nil, func(k, v []byte) bool {
		if indexKeySeq(k) > d.ckptSeq {
			return true
		}
		bad = parseStamped(v, &rr)
		var r record
		si := uint64(0)
		if bad == nil {
			si = route(rr.strs[0], rr.strs[1], rr.strs[2]) & mask
			r, bad = shards[si].coldRecord(&rr)
		}
		if bad != nil {
			bad = fmt.Errorf("audit: index record %d: %w", n, bad)
			return false
		}
		pending[si] = append(pending[si], r)
		n++
		maxSeq = max(maxSeq, r.seq)
		if buffered++; buffered == foldBatch {
			flush()
		}
		return true
	})
	if err == nil {
		err = bad
	}
	flush()
	return n, maxSeq, err
}

// scanIndex decodes and validates the checkpointed index records with
// keys in [lo, hi), in key order.
func (d *Durable) scanIndex(lo, hi []byte) ([]stamped, error) {
	var out []stamped
	var decErr error
	err := d.store.Scan(lo, hi, func(k, v []byte) bool {
		if indexKeySeq(k) > d.ckptSeq {
			return true
		}
		seq, e, derr := decodeStamped(v)
		if derr == nil {
			derr = e.Validate()
		}
		if derr != nil {
			decErr = fmt.Errorf("audit: index record %d: %w", len(out), derr)
			return false
		}
		out = append(out, stamped{seq: seq, e: e})
		return true
	})
	if err == nil {
		err = decErr
	}
	return out, err
}

// coldRun reads the checkpointed entries with lo < seq <= hi into one
// run sorted by seq, their strings interned in the run's own
// dictionary; with limit > 0 only the limit lowest seqs. The index is
// keyed (time, status, seq), so append order is one scan — values
// outside the range are skipped by their key alone — and a sort: an
// O(n log n) read, where a second, seq-ordered key would double the
// index writes of every cut (DESIGN.md has the measurements). The
// caller holds d.mu, shared or not.
func (d *Durable) coldRun(lo, hi uint64, limit int) (run, error) {
	if lo >= hi {
		return run{}, nil
	}
	var dc dict
	low := lowestSeqs{limit: limit}
	var rr rawRecord
	var bad error
	err := d.store.Scan(nil, nil, func(k, v []byte) bool {
		if seq := indexKeySeq(k); seq <= lo || seq > hi {
			return true
		}
		if bad = parseStamped(v, &rr); bad != nil {
			bad = fmt.Errorf("audit: index record of seq %d: %w", indexKeySeq(k), bad)
			return false
		}
		r := dc.fromRaw(&rr)
		e := dc.entry(&r)
		if bad = e.Validate(); bad != nil {
			bad = fmt.Errorf("audit: index record of seq %d: %w", r.seq, bad)
			return false
		}
		low.push(r)
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return run{}, err
	}
	return run{recs: low.sorted(), d: dc}, nil
}

// Log returns the log backed by this store: the checkpointed prefix
// read from the index plus the in-memory tail. Appends through it flow
// into the WAL via the attached sink, and its structural operations
// (Expire, Rotate, Reset) go through the store as Durable.Expire does,
// so the index always holds exactly the log's checkpointed entries.
func (d *Durable) Log() *Log { return d.log }

// Append forwards to the underlying log.
func (d *Durable) Append(entries ...Entry) error { return d.log.Append(entries...) }

// Sync blocks until every entry appended before the call is durable
// in the WAL (one shared group-commit fsync away, not one per entry).
func (d *Durable) Sync() { d.log.flush() }

// PoolStats exposes the index store's buffer-pool counters.
func (d *Durable) PoolStats() storage.PoolStats { return d.store.PoolStats() }

// WALSyncs reports the WAL's fsync count (group-commit amortization).
func (d *Durable) WALSyncs() uint64 { return d.wal.Syncs() }

// Checkpoint durably folds everything appended so far into the index
// store, drops it from the shards, then truncates the WAL behind the
// cut. The store also checkpoints itself in the background (see
// checkpointBytes).
func (d *Durable) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cutLocked(0)
}

// cutLocked indexes the entries appended since the last cut and
// commits them, together with every index deletion made since, by one
// store checkpoint — the single meta swap that is the commit point.
// The shards then drop the cut's records, and the WAL is truncated
// behind it. removed is the number of index entries deleted since the
// last cut. The caller holds d.mu.
func (d *Durable) cutLocked(removed uint64) error {
	// Capture the truncation bound BEFORE the cut: every WAL record at
	// or below this LSN was appended before cur was read, so its seq
	// is at or below cur and the checkpoint below covers it.
	lsnCut := d.wal.LastLSN()
	cur := d.log.fence()
	var val []byte
	var err error
	added := uint64(0)
	merge(d.log.runsBefore(cur), bySeq, func(dc *dict, r *record) {
		if err != nil {
			return
		}
		e := dc.entry(r)
		val = appendStamped(val[:0], r.seq, &e)
		err = d.store.Put(indexKey(e.Time, e.Status, r.seq), val)
		added++
	})
	if err != nil {
		return err
	}
	count := d.count - removed + added
	if err := d.store.Checkpoint(encodeApp(cur, count, d.log.epoch.Load())); err != nil {
		return err
	}
	d.ckptSeq = cur
	d.count = count
	d.log.dropBefore(cur)
	// The pages the cut wrote are on disk; the next cut touches only
	// the newest few again.
	d.store.DropCache()
	return d.wal.TruncateBefore(lsnCut + 1)
}

// SnapshotRange returns the entries with from <= time < to in
// chronological order (same-instant entries in append order),
// byte-identical to filtering the whole log's time-ordered merge. The
// checkpointed part is a single index range read; only the
// un-checkpointed tail touches the in-memory shards. A zero bound
// means unbounded.
func (d *Durable) SnapshotRange(from, to time.Time) ([]Entry, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.snapshotRangeLocked(from, to)
}

func (d *Durable) snapshotRangeLocked(from, to time.Time) ([]Entry, error) {
	var lo, hi []byte
	if !from.IsZero() {
		lo = indexTimeBound(from)
	}
	if !to.IsZero() {
		hi = indexTimeBound(to)
	}
	ckpt, err := d.scanIndex(lo, hi)
	if err != nil {
		return nil, err
	}
	// Index byte order is (time, status, seq); restore (time, seq)
	// order. Sequence spaces across recovery generations ascend, so
	// seq order within an instant is append order.
	sort.Slice(ckpt, func(i, j int) bool {
		if a, b := ckpt[i].e.Time.UnixNano(), ckpt[j].e.Time.UnixNano(); a != b {
			return a < b
		}
		return ckpt[i].seq < ckpt[j].seq
	})

	fromCut, toCut := newCutoff(from), newCutoff(to)
	tail := mergeEntries(d.log.runs(func(r *record) bool {
		return (from.IsZero() || !fromCut.before(r.ns)) && (to.IsZero() || toCut.before(r.ns))
	}), byTime)

	// Merge; on equal instants the checkpointed side wins — its
	// entries were appended before every tail entry.
	out := make([]Entry, 0, len(ckpt)+len(tail))
	i, j := 0, 0
	for i < len(ckpt) && j < len(tail) {
		if !tail[j].Time.Before(ckpt[i].e.Time) {
			out = append(out, ckpt[i].e)
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	for ; i < len(ckpt); i++ {
		out = append(out, ckpt[i].e)
	}
	return append(out, tail[j:]...), nil
}

// ExpireScan counts, from the persistent index plus the in-memory
// tail, the entries an Expire(cutoff, exceptionCutoff) would drop —
// without touching entry values: the composite key alone carries the
// timestamp and status the retention rule needs.
func (d *Durable) ExpireScan(cutoff, exceptionCutoff time.Time) (int, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	keep := retention(cutoff, exceptionCutoff)
	err := d.store.Scan(nil, indexTimeBound(cutoff), func(k, v []byte) bool {
		if indexKeySeq(k) <= d.ckptSeq && !keep(indexKeyTime(k)) {
			n++
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, rn := range d.log.runs(func(r *record) bool { return !keep(r.ns, Status(r.status)) }) {
		n += len(rn.recs)
	}
	return n, nil
}

// Expire drops entries older than cutoff (with the same
// exception-retention rule as Log.Expire, which calls it) from the
// index and the in-memory tail: the checkpointed victims are a
// key-range delete, and one store checkpoint commits the deletes
// together with the surviving tail, so a crash leaves either the
// pre-expiry or the post-expiry generation.
func (d *Durable) Expire(cutoff, exceptionCutoff time.Time) (int, error) {
	return d.retain(indexTimeBound(cutoff), retention(cutoff, exceptionCutoff), nil)
}

// retain drops every entry keep rejects — the checkpointed ones among
// the index keys below the time bound before (nil for all) — and
// commits the result with one cut. When removed is non-nil it receives
// the dropped entries: the checkpointed ones as one run, then the
// tail's, shard by shard. Any drop advances the log epoch and rebuilds
// every shard's index from the surviving entries, checkpointed and
// in memory alike.
func (d *Durable) retain(before []byte, keep func(ns int64, st Status) bool, removed func(run)) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Victims above the cut are left in the working tree by a failed
	// cut; the shards hold them, so they are deleted here but counted
	// and returned with the tail.
	var victims [][]byte
	cold := uint64(0)
	var gone run
	var rr rawRecord
	var decErr error
	err := d.store.Scan(nil, before, func(k, v []byte) bool {
		if keep(indexKeyTime(k)) {
			return true
		}
		victims = append(victims, k)
		if indexKeySeq(k) > d.ckptSeq {
			return true
		}
		cold++
		if removed != nil {
			if decErr = parseStamped(v, &rr); decErr != nil {
				return false
			}
			gone.recs = append(gone.recs, gone.d.fromRaw(&rr))
		}
		return true
	})
	if err == nil {
		err = decErr
	}
	if err != nil {
		return 0, err
	}
	for _, k := range victims {
		if _, err := d.store.Delete(k); err != nil {
			return 0, err
		}
	}
	hot := func(r *record) bool { return keep(r.ns, Status(r.status)) }
	dropped := 0
	if cold > 0 || d.log.anyRejected(hot) {
		// The epoch moves before any shard changes: a reader that
		// observes a changed shard then sees the move.
		d.log.epoch.Add(1)
		fresh := make([]*shard, len(d.log.shards))
		for i := range fresh {
			fresh[i] = &shard{}
		}
		if _, _, err := d.foldIndex(fresh); err != nil {
			return 0, err
		}
		if removed != nil && len(gone.recs) > 0 {
			removed(gone)
		}
		dropped = d.log.trimShards(hot, removed, fresh)
	}
	return int(cold) + dropped, d.cutLocked(cold)
}

// Close drains the sink (a final WAL group commit makes every
// acknowledged append durable), stops the background checkpointer,
// then releases the WAL and the index store. It does not checkpoint;
// reopening replays the WAL tail.
func (d *Durable) Close() error {
	d.log.closeSink()
	d.quitOnce.Do(func() { close(d.quit) })
	<-d.done
	err := d.wal.Close()
	if e := d.store.Close(); err == nil {
		err = e
	}
	return err
}
