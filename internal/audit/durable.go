package audit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
//     value under its sequence number (seqKey), so every append-order
//     read is one key range that stops at its limit (coldRun), and a
//     cut appends at the tree's right edge. Time-ordered reads and
//     retention scan the index and filter on the record header. The
//     store's meta blob attests the cut, the entry count and the log
//     epoch, so one shadow-paged meta swap commits a checkpoint and a
//     retention expiry alike.
//
// The log reads the checkpointed prefix through its cold side (the
// Log.cold pointer to this store): every entry reader merges it with
// the shards' in-memory tail under mu's shared side, and cuts take it
// exclusively, so a concurrent cut never shows an entry twice or not
// at all. The refinement index stays in
// memory: it is O(groups).
//
// Recovery folds index.db straight into the per-shard index without
// keeping its records, one key range per CPU, loads the WAL tail, and
// concludes with a checkpoint that re-persists the tail, so the WAL
// never grows across restarts. Every cut rolls the WAL to a new
// segment and deletes the ones it covers, so a store closed after a
// checkpoint reopens with no WAL frame to read. While the store runs,
// the sink wakes a background checkpointer after every
// checkpointBytes of WAL, so neither the WAL nor the shards grow past
// that between cuts. JSONL is an export edge only: WriteJSONL of
// Log().Snapshot() exports a copy.
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

// app blob layout: "ADU4" + ckptSeq + count + drop word + epoch. The
// drop word counted entries a lossy sink policy once skipped; it is
// written as zero and ignored on read. Earlier stores keyed their index
// by (time, status, seq) and wrote "ADU3" (the same words), or, when
// they also kept a JSONL checkpoint, "ADU1" (ckptSeq + JSONL length +
// count + drop word + epoch) or "ADU2" (the same plus a flags word);
// their index already held every checkpointed entry, so they decode
// with the JSONL length and the flags ignored, as legacy: OpenDurable
// migrates them once (migrate).
const (
	appMagic = "ADU4"
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

func decodeApp(b []byte) (ckptSeq, count, epoch uint64, legacy bool, err error) {
	var off [3]int // byte offsets of ckptSeq, count, epoch
	switch magic := string(b[:min(len(b), 4)]); {
	case len(b) == 0:
		return 0, 0, 0, false, nil
	case len(b) == appLen && (magic == appMagic || magic == "ADU3"):
		off, legacy = [3]int{4, 12, 28}, magic == "ADU3"
	case len(b) == 4+8*5 && magic == "ADU1", len(b) == 4+8*6 && magic == "ADU2":
		off, legacy = [3]int{4, 20, 36}, true
	default:
		return 0, 0, 0, false, fmt.Errorf("audit: unrecognized durable meta blob (%d bytes)", len(b))
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[off[i]:]) }
	return u(0), u(1), u(2), legacy, nil
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

// parseStamped decodes a durable record in place, strictly: a record
// must hold exactly one entry, with an op and a status Validate
// accepts, and its strings stay in b.
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

// seqKey is the index key of the entry with sequence number seq: the
// number big-endian, so key order is append order and every seq range
// is a key range.
func seqKey(seq uint64) []byte { return binary.BigEndian.AppendUint64(nil, seq) }

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
	var legacy bool
	d.ckptSeq, d.count, epoch, legacy, err = decodeApp(st.App())
	if err == nil && legacy {
		err = d.migrate(epoch)
	}
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
		// Resume numbering past the cut, which is at or above every
		// checkpointed seq (expired entries leave gaps below it), so new
		// seqs stay above every stored one. The loads already raised the
		// counter past every WAL record, so the concluding checkpoint's
		// cut covers them all and none is replayed again by the next open.
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

// migrate rewrites an index of the (time, status, seq)-keyed layout
// under seq keys: it reads every entry, checks the count the meta blob
// attests, replaces each key, and commits with one store checkpoint
// under appMagic, so a crash leaves one layout or the other whole.
func (d *Durable) migrate(epoch uint64) error {
	type kv struct{ key, val []byte }
	var all []kv
	var bad error
	err := d.store.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != 8+1+8 { // time, status, seq
			bad = fmt.Errorf("audit: legacy index key of %d bytes", len(k))
			return false
		}
		all = append(all, kv{bytes.Clone(k), bytes.Clone(v)}) // the scan reuses k and v
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	if uint64(len(all)) != d.count {
		return fmt.Errorf("audit: index holds %d entries, checkpoint attests %d", len(all), d.count)
	}
	for _, e := range all {
		if _, err := d.store.Delete(e.key); err != nil {
			return err
		}
	}
	seq := func(e kv) uint64 { return binary.BigEndian.Uint64(e.key[9:]) }
	sort.Slice(all, func(i, j int) bool { return seq(all[i]) < seq(all[j]) })
	for _, e := range all {
		if err := d.store.Put(seqKey(seq(e)), e.val); err != nil {
			return err
		}
	}
	return d.store.Checkpoint(encodeApp(d.ckptSeq, d.count, epoch))
}

// loadCheckpoint folds the checkpointed prefix into the log's shard
// indexes, keeping none of its records. The count must match the one
// the meta blob attests.
func (d *Durable) loadCheckpoint() error {
	n, err := d.foldIndex(d.log.shards)
	if err == nil && n != d.count {
		err = fmt.Errorf("audit: index holds %d entries, checkpoint attests %d", n, d.count)
	}
	return err
}

// foldBatch is how many index records foldRange buffers before it
// folds them into the index shard by shard: one shard's groups at a
// time stay in cache, where folding in key order would touch every
// shard's per record.
const foldBatch = 1 << 16

// foldIndex folds every checkpointed entry in the index into shards —
// the log's own during recovery, fresh ones when retention rebuilds
// the index — routed as appends are, keeping no record. The index up
// to the cut is split into min(GOMAXPROCS, root fan-out) key ranges
// (Store.Splits), folded in parallel: the first range into shards,
// every other one into private shards of its own, which are then
// absorbed into shards in range order. One range is the serial fold,
// with nothing to absorb. It returns the number of entries folded.
func (d *Durable) foldIndex(shards []*shard) (uint64, error) {
	splits, err := d.store.Splits(runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	// Keys above the cut are a failed cut's leftovers (see retain).
	top := seqKey(d.ckptSeq + 1)
	bounds := [][]byte{nil}
	for _, k := range splits {
		if bytes.Compare(k, top) < 0 {
			bounds = append(bounds, k)
		}
	}
	bounds = append(bounds, top)
	type part struct {
		shards []*shard
		n      uint64
		err    error
	}
	parts := make([]part, len(bounds)-1)
	var wg sync.WaitGroup
	for i := 1; i < len(parts); i++ {
		p := &parts[i]
		p.shards = make([]*shard, len(shards))
		for j := range p.shards {
			p.shards[j] = &shard{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.n, p.err = d.foldRange(bounds[i], bounds[i+1], p.shards)
		}()
	}
	parts[0].n, parts[0].err = d.foldRange(bounds[0], bounds[1], shards)
	wg.Wait()
	n := uint64(0)
	for _, p := range parts {
		if p.err != nil {
			return 0, p.err
		}
		n += p.n
		for j, sh := range p.shards { // none for the first range
			shards[j].absorb(sh)
		}
	}
	return n, nil
}

// foldRange folds the entries with keys in [lo, hi) into shards, which
// the caller owns, and returns how many it folded.
func (d *Durable) foldRange(lo, hi []byte, shards []*shard) (n uint64, err error) {
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
	err = d.store.Scan(lo, hi, func(k, v []byte) bool {
		bad = parseStamped(v, &rr)
		var r record
		si := uint64(0)
		if bad == nil {
			si = route(rr.strs[0], rr.strs[1], rr.strs[2]) & mask
			r, bad = shards[si].coldRecord(&rr)
		}
		if bad != nil {
			bad = fmt.Errorf("audit: index record of seq %d: %w", binary.BigEndian.Uint64(k), bad)
			return false
		}
		pending[si] = append(pending[si], r)
		n++
		if buffered++; buffered == foldBatch {
			flush()
		}
		return true
	})
	if err == nil {
		err = bad
	}
	flush()
	return n, err
}

// coldRun reads the checkpointed entries with lo < seq <= hi that keep
// accepts (every one when keep is nil), only the first limit when
// limit > 0, into one run in seq order, their strings interned in the
// run's own dictionary: one index range read, which stops at the
// limit. Every entry read must pass Validate. hi is at most the cut;
// the caller holds d.mu, shared or not.
func (d *Durable) coldRun(lo, hi uint64, limit int, keep func(r *record) bool) (run, error) {
	var rn run
	if lo >= hi {
		return rn, nil
	}
	var rr rawRecord
	var bad error
	err := d.store.Scan(seqKey(lo+1), seqKey(hi+1), func(k, v []byte) bool {
		if bad = parseStamped(v, &rr); bad == nil {
			// Kept in place, so keep's pointer does not move r to the heap.
			rn.recs = append(rn.recs, rn.d.fromRaw(&rr))
			r := &rn.recs[len(rn.recs)-1]
			e := rn.d.entry(r)
			if bad = e.Validate(); bad == nil && keep != nil && !keep(r) {
				rn.recs = rn.recs[:len(rn.recs)-1]
			}
		}
		if bad != nil {
			bad = fmt.Errorf("audit: index record of seq %d: %w", binary.BigEndian.Uint64(k), bad)
			return false
		}
		return limit <= 0 || len(rn.recs) < limit
	})
	if err == nil {
		err = bad
	}
	return rn, err
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
	// Drain the sink first, so the cut's WAL roll leaves every entry
	// appended before the call in a segment the cut then deletes.
	d.log.flush()
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
	// Roll the WAL, then capture the truncation bound BEFORE the cut:
	// every WAL record at or below this LSN was appended before cur was
	// read, so its seq is at or below cur and the checkpoint below
	// covers it. Every segment the roll closed ends at or below it, so
	// the truncation deletes them all and no reopen reads their frames
	// again.
	if err := d.wal.Roll(); err != nil {
		// A failed roll is the WAL's sticky error, which goes to OnErr
		// as the sink's append errors do. It does not stop the cut:
		// the index is then the only durable copy of the tail.
		d.report(err)
	}
	lsnCut := d.wal.LastLSN()
	cur := d.log.fence()
	var val []byte
	var err error
	added := uint64(0)
	merge(d.log.seqRuns(0, cur, 0), bySeq, func(dc *dict, r *record) {
		if err != nil {
			return
		}
		e := dc.entry(r)
		val = appendStamped(val[:0], r.seq, &e)
		err = d.store.Put(seqKey(r.seq), val)
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
// byte-identical to filtering the whole log's time-ordered merge: the
// checkpointed part is one index scan filtered on the record header,
// the un-checkpointed tail is read from the shards. A zero bound means
// unbounded.
func (d *Durable) SnapshotRange(from, to time.Time) ([]Entry, error) {
	fromCut, toCut := newCutoff(from), newCutoff(to)
	keep := func(r *record) bool {
		return (from.IsZero() || !fromCut.before(r.ns)) && (to.IsZero() || toCut.before(r.ns))
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	cold, err := d.coldRun(0, d.ckptSeq, 0, keep)
	if err != nil {
		return nil, err
	}
	// Every checkpointed seq is below every tail seq, so the merge's seq
	// tie-break puts same-instant entries in append order.
	return mergeEntries(append(d.log.runs(keep), cold), byTime), nil
}

// ExpireScan counts, from the persistent index plus the in-memory
// tail, the entries an Expire(cutoff, exceptionCutoff) would drop,
// changing nothing.
func (d *Durable) ExpireScan(cutoff, exceptionCutoff time.Time) (int, error) {
	keep := retention(cutoff, exceptionCutoff)
	drop := func(r *record) bool { return !keep(r.ns, Status(r.status)) }
	d.mu.RLock()
	defer d.mu.RUnlock()
	cold, err := d.coldRun(0, d.ckptSeq, 0, drop)
	if err != nil {
		return 0, err
	}
	n := len(cold.recs)
	for _, rn := range d.log.runs(drop) {
		n += len(rn.recs)
	}
	return n, nil
}

// Expire drops entries older than cutoff (with the same
// exception-retention rule as Log.Expire, which calls it) from the
// index and the in-memory tail; one store checkpoint commits the index
// deletes together with the surviving tail, so a crash leaves either
// the pre-expiry or the post-expiry generation.
func (d *Durable) Expire(cutoff, exceptionCutoff time.Time) (int, error) {
	return d.retain(retention(cutoff, exceptionCutoff), nil)
}

// retain drops every entry keep rejects and commits the result with
// one cut. When removed is non-nil it receives the dropped entries:
// the checkpointed ones as one run, then the tail's, shard by shard.
// Any drop advances the log epoch and rebuilds every shard's index
// from the surviving entries, checkpointed and in memory alike.
func (d *Durable) retain(keep func(ns int64, st Status) bool, removed func(run)) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	gone, err := d.coldRun(0, d.ckptSeq, 0, func(r *record) bool { return !keep(r.ns, Status(r.status)) })
	if err != nil {
		return 0, err
	}
	victims := make([]uint64, 0, len(gone.recs))
	for _, r := range gone.recs {
		victims = append(victims, r.seq)
	}
	// Keys above the cut are what a failed cut left in the working tree.
	// The shards still hold those entries, and the cut below puts back
	// the ones that survive, so every one of them goes.
	err = d.store.Scan(seqKey(d.ckptSeq+1), nil, func(k, _ []byte) bool {
		victims = append(victims, binary.BigEndian.Uint64(k))
		return true
	})
	if err != nil {
		return 0, err
	}
	for _, seq := range victims {
		if _, err := d.store.Delete(seqKey(seq)); err != nil {
			return 0, err
		}
	}
	cold := uint64(len(gone.recs))
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
		if _, err := d.foldIndex(fresh); err != nil {
			return 0, err
		}
		if removed != nil && cold > 0 {
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
