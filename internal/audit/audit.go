// Package audit implements the PRIMA audit substrate (paper §4.2):
// the audit entry schema {(time, t), (op, X), (user, u), (data, d),
// (purpose, p), (authorized, a), (status, s)}, append-only audit logs,
// JSONL and CSV codecs, and the Audit Management federation that
// consolidates several site logs into one consistent view (the role
// DB2 Information Integrator plays in the paper's first instantiation).
//
// The log is a streaming pipeline, not a snapshot store: ingestion is
// lock-striped across shards, every append updates an incremental
// per-rule index (see index.go), and a durable log feeds its WAL
// through an asynchronous sink (see sink.go). Three invariants hold:
//
//   - sequence monotonicity: every entry carries a globally unique,
//     monotonically increasing sequence number assigned at append;
//     Snapshot and Delta order by it, so the sharded log observes the
//     exact append order a single-mutex log would;
//   - flush ordering: when a sink is attached, sequence assignment and
//     sink enqueue are a single atomic step, so the durable store's
//     WAL is written in sequence order;
//   - index consistency: per-shard group and stats accumulators are
//     updated under the same shard lock as the entry append, so a
//     merged index view always equals a full rescan of the entries it
//     has seen.
package audit

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// Op is the audit outcome: whether the access was allowed.
type Op int

// Op values follow the paper: 0 = disallow, 1 = allow.
const (
	Deny  Op = 0
	Allow Op = 1
)

// String renders the op.
func (o Op) String() string {
	if o == Allow {
		return "allow"
	}
	return "deny"
}

// Status distinguishes exception-based (break-the-glass) access from
// regular access.
type Status int

// Status values follow the paper: 0 = exception-based, 1 = regular.
const (
	Exception Status = 0
	Regular   Status = 1
)

// String renders the status.
func (s Status) String() string {
	if s == Regular {
		return "regular"
	}
	return "exception"
}

// Entry is one audit record with the paper's exact schema.
//
// The prima:phi markers below feed prima-vet's phileak analyzer:
// those fields identify people and the health data touched, and must
// not reach prints, logs, or error strings except through the
// prima:redact helpers in internal/report.
type Entry struct {
	Time       time.Time `json:"time"`
	Op         Op        `json:"op"`
	User       string    `json:"user"`       // prima:phi — requesting user identity
	Data       string    `json:"data"`       // prima:phi — data category accessed
	Purpose    string    `json:"purpose"`    // prima:phi — stated access purpose
	Authorized string    `json:"authorized"` // authorization category (role)
	Status     Status    `json:"status"`

	// Site identifies the originating audit system when several logs
	// are federated; empty for a single-log deployment.
	Site string `json:"site,omitempty"`
	// Reason carries the manually entered justification of an
	// exception-based access, when one was recorded.
	Reason string `json:"reason,omitempty"` // prima:phi — free-text justification
}

// blank reports whether s is empty or whitespace-only. ASCII resolves
// in the loop (typically on the first byte); anything with high bytes
// defers to TrimSpace for Unicode space handling.
func blank(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
		case c < 0x80:
			return false
		default:
			return strings.TrimSpace(s) == ""
		}
	}
	return true
}

// MaxZoneOffset bounds an entry's zone offset in seconds: RFC 3339,
// and with it the JSONL export, has no notation for an offset of a day
// or more.
const MaxZoneOffset = 24*3600 - 1

// minTime and maxTime bound the instants an entry may carry: the
// durable record, the index key and the wire codec all hold a
// timestamp as int64 Unix nanoseconds.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// inNanoRange reports whether t lies within [minTime, maxTime].
func inNanoRange(t time.Time) bool {
	// Whole seconds strictly inside the range need no nanosecond
	// comparison, which costs several times more.
	if s := t.Unix(); s > math.MinInt64/int64(time.Second)-1 && s < math.MaxInt64/int64(time.Second) {
		return true
	}
	return !t.Before(minTime) && !t.After(maxTime)
}

// Validate reports schema violations: a usable audit row needs a
// timestamp every encoding can hold, a user, data category, purpose
// and role, and an op and status from the paper's schema.
func (e *Entry) Validate() error {
	var missing []string
	if e.Time.IsZero() {
		missing = append(missing, "time")
	}
	if blank(e.User) {
		missing = append(missing, "user")
	}
	if blank(e.Data) {
		missing = append(missing, "data")
	}
	if blank(e.Purpose) {
		missing = append(missing, "purpose")
	}
	if blank(e.Authorized) {
		missing = append(missing, "authorized")
	}
	if len(missing) > 0 {
		return fmt.Errorf("audit: entry missing %s", strings.Join(missing, ", "))
	}
	if !inNanoRange(e.Time) {
		return fmt.Errorf("audit: time outside %d-%d, the int64-nanosecond range", minTime.Year(), maxTime.Year())
	}
	if e.Time.Location() != time.UTC {
		if _, off := e.Time.Zone(); off < -MaxZoneOffset || off > MaxZoneOffset {
			return fmt.Errorf("audit: zone offset %ds is a day or more", off)
		}
	}
	if e.Op != Allow && e.Op != Deny {
		return fmt.Errorf("audit: bad op %d", e.Op)
	}
	if e.Status != Regular && e.Status != Exception {
		return fmt.Errorf("audit: bad status %d", e.Status)
	}
	return nil
}

// Rule converts the entry into a ground rule over the policy
// attributes (data, purpose, authorized) — the projection the paper
// uses to treat the audit log as the policy P_AL.
func (e Entry) Rule() policy.Rule {
	return policy.MustRule(
		policy.T("data", e.Data),
		policy.T("purpose", e.Purpose),
		policy.T("authorized", e.Authorized),
	)
}

// String renders the entry compactly.
func (e Entry) String() string {
	return fmt.Sprintf("%s %s user=%s data=%s purpose=%s authorized=%s status=%s",
		e.Time.Format(time.RFC3339), e.Op, e.User, e.Data, e.Purpose, e.Authorized, e.Status)
}

// stamped is an entry plus its global sequence number: the pair the
// sink queue carries to the WAL and the durable store's range read
// decodes from its index. Shards hold records instead (record.go).
type stamped struct {
	seq uint64
	e   Entry
}

// shard is one lock stripe of the log: its entries as compact records
// (record.go), the dictionary they index, and the incremental
// group/stats accumulators for exactly those entries. A durable log's
// shard holds only the tail above the checkpoint cut; its accumulators
// cover the checkpointed entries too.
type shard struct {
	mu sync.RWMutex
	// recs is sorted by seq, whatever order concurrent appenders reach
	// the shard in (put keeps it so), so every seq range is a binary
	// search (Log.seqRuns).
	recs []record
	dict
	groups map[groupKey]*groupAcc
	// gen counts the changes to groups: every fold and every rebuild
	// moves it, so a gen read with the groups under the lock names
	// exactly that state (the Groups view's key).
	gen   uint64
	stats statsAcc
}

// add appends one entry and folds it into the shard's index under a
// single critical section.
func (s *shard) add(seq uint64, e *Entry) {
	s.mu.Lock()
	if s.recs == nil {
		// First write to the stripe: skip the doubling ramp.
		s.recs = make([]record, 0, 64)
	}
	s.put(s.record(seq, e))
	s.mu.Unlock()
}

// put adds r to the shard's records in seq order and folds it into the
// shard's index; the caller holds the shard lock or owns the shard.
// Nearly always r's seq is the shard's highest and r is appended. An
// append that took its seq before a racing one but reached the shard
// after it goes in by binary search instead, moving only records with
// higher seqs, so a prefix up to any lower seq is never written (see
// runsBefore).
func (s *shard) put(r record) {
	if n := len(s.recs); n == 0 || s.recs[n-1].seq < r.seq {
		s.recs = append(s.recs, r)
	} else {
		s.recs = slices.Insert(s.recs, s.above(r.seq), r)
	}
	s.indexLocked(&r)
}

// above returns the position of the shard's first record with a seq
// above seq.
func (s *shard) above(seq uint64) int {
	return sort.Search(len(s.recs), func(i int) bool { return s.recs[i].seq > seq })
}

// defaultShards is the lock-stripe count of NewLog. Sixteen stripes
// keep append contention negligible at clinic scale without making
// cross-shard reads noticeably wider.
const defaultShards = 16

// Log is a thread-safe, append-only audit log, lock-striped across
// shards. Entries are routed to a shard by a hash of (user, data,
// purpose) and stamped with a global monotone sequence number, so
// concurrent appends contend only per stripe while Snapshot and Delta
// still observe one deterministic total order.
type Log struct {
	site  string
	mask  uint64
	seq   atomic.Uint64 // last assigned sequence number
	epoch atomic.Uint64 // bumped by structural ops (Reset/Expire/Rotate)
	// floor is the sequence number the live entries start above; Reset
	// advances it to the counter so a fresh ExportCursor can export a
	// reset log (append-only after a reset keeps sequences dense).
	// Retention trims (Expire/Rotate) punch mid-range holes instead and
	// leave the floor alone — such logs are not wire-exportable.
	floor atomic.Uint64
	// addMu brackets the assign-sequence-then-add-to-shard window of
	// every append (shared side). fence takes the exclusive side: while
	// it is held, every assigned sequence number is visible in its
	// shard and none is being assigned, so a checkpoint cut or a Delta
	// cursor at l.seq loses nothing.
	addMu  sync.RWMutex
	sink   atomic.Pointer[sink]
	shards []*shard
	// cold is the store holding the checkpointed prefix, which the
	// shards no longer hold; nil for an in-memory log, whose readers
	// then find nothing on the cold side.
	cold *Durable
	// view is the published Groups result (see Log.Groups).
	view atomic.Pointer[groupView]
}

// NewLog returns an empty log for the named site (may be empty).
func NewLog(site string) *Log { return NewLogShards(site, defaultShards) }

// NewLogShards returns an empty log with the given number of lock
// stripes, rounded up to a power of two and clamped to [1, 256]. One
// shard reproduces the single-mutex behaviour exactly.
func NewLogShards(site string, n int) *Log {
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	size := 1
	for size < n {
		size <<= 1
	}
	l := &Log{site: site, mask: uint64(size - 1), shards: make([]*shard, size)}
	for i := range l.shards {
		l.shards[i] = &shard{}
	}
	return l
}

// Site returns the log's site identifier.
func (l *Log) Site() string { return l.site }

// Seq returns the last assigned sequence number (0 when empty).
func (l *Log) Seq() uint64 { return l.seq.Load() }

// shardIndex routes an entry to its stripe: an FNV-1a hash over the
// (user, data, purpose) identity bytes. The op/status outcome is
// deliberately excluded so replicas and conflicting records of the
// same event land in the same stripe.
func (l *Log) shardIndex(e *Entry) uint64 {
	return route(e.User, e.Data, e.Purpose) & l.mask
}

// route is shardIndex's hash, over strings or a decoded record's bytes.
func route[S string | []byte](user, data, purpose S) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(user); i++ {
		h = (h ^ uint64(user[i])) * prime64
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(data); i++ {
		h = (h ^ uint64(data[i])) * prime64
	}
	h = (h ^ '|') * prime64
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * prime64
	}
	return h
}

// Append validates and appends entries. The log's site is stamped on
// entries that do not already carry one. Sequence numbers are
// assigned per entry; when a durable sink is attached, assignment and
// sink enqueue happen atomically so the sink stream preserves
// sequence order (the flush-ordering invariant).
func (l *Log) Append(entries ...Entry) error {
	for i := range entries {
		if err := entries[i].Validate(); err != nil {
			return err
		}
	}
	s := l.sink.Load()
	if len(entries) == 1 {
		e := &entries[0]
		if e.Site == "" {
			// Stamp a local copy; the caller's slice is not ours to
			// mutate.
			st := *e
			st.Site = l.site
			e = &st
		}
		l.addMu.RLock()
		var seq [1]uint64
		if s != nil {
			s.send(l, []Entry{*e}, "", seq[:])
		} else {
			seq[0] = l.seq.Add(1)
		}
		l.shards[l.shardIndex(e)].add(seq[0], e)
		l.addMu.RUnlock()
		return nil
	}
	if s != nil {
		l.addMu.RLock()
		defer l.addMu.RUnlock()
		seqs := make([]uint64, len(entries))
		s.send(l, entries, l.site, seqs)
		l.addToShards(entries, true, 0, seqs)
		return nil
	}
	l.appendBatch(entries, true)
	return nil
}

// appendBatch routes a sink-free batch: one sequence-range
// reservation, then addToShards. Sequence numbers follow input order,
// so Snapshot observes the batch exactly as a per-entry loop would.
func (l *Log) appendBatch(entries []Entry, stampSite bool) {
	l.addMu.RLock()
	defer l.addMu.RUnlock()
	base := l.seq.Add(uint64(len(entries))) - uint64(len(entries))
	l.addToShards(entries, stampSite, base, nil)
}

// addToShards adds a batch whose sequence numbers are assigned: entry
// i takes seqs[i] (a sink batch), or base+i+1 when seqs is nil. Each
// stripe is locked once and grown once instead of paying a lock
// round-trip per entry. A sink-free batch grows a stripe by doubling,
// which keeps a log filled batch by batch (federation site logs,
// recovery) at linear copying. A sink batch grows it by append's
// growth: there a durable log's writer adds small batches to large
// recovered stripes, and doubling them would add a whole log's size in
// slack. Measured on the benchmark, doubling sink batches too raised
// officer-review's live heap by 18%, and append's growth for every
// batch made building site-federation's site logs half again slower.
// The caller holds addMu's read side.
func (l *Log) addToShards(entries []Entry, stampSite bool, base uint64, seqs []uint64) {
	// Bucket the batch by shard with a counting sort over the indices,
	// so each shard's pass walks only its own entries instead of
	// skip-scanning the whole batch per stripe.
	var counts [256]int
	idx := make([]uint8, len(entries))
	for i := range entries {
		si := l.shardIndex(&entries[i])
		idx[i] = uint8(si)
		counts[si]++
	}
	var offsets [256]int
	pos := 0
	for si := range l.shards {
		offsets[si] = pos
		pos += counts[si]
	}
	perm := make([]int32, len(entries))
	for i := range entries {
		perm[offsets[idx[i]]] = int32(i)
		offsets[idx[i]]++
	}
	pos = 0
	for si, sh := range l.shards {
		if counts[si] == 0 {
			continue
		}
		bucket := perm[pos : pos+counts[si]]
		pos += counts[si]
		sh.mu.Lock()
		var site uint32 // l.site's id, interned at its first use
		if seqs != nil {
			sh.recs = slices.Grow(sh.recs, counts[si])
		} else if need := len(sh.recs) + counts[si]; cap(sh.recs) < need {
			c := 2 * cap(sh.recs)
			if c < need {
				c = need
			}
			if c < 64 {
				c = 64
			}
			grown := make([]record, len(sh.recs), c)
			copy(grown, sh.recs)
			sh.recs = grown
		}
		for _, i := range bucket {
			seq := base + uint64(i) + 1
			if seqs != nil {
				seq = seqs[i]
			}
			r := sh.record(seq, &entries[i])
			if stampSite && r.site == 0 {
				if site == 0 {
					site = sh.intern(l.site)
				}
				r.site = site
			}
			sh.put(r)
		}
		sh.mu.Unlock()
	}
}

// bulkLoad appends pre-validated entries without sink interaction or
// site stamping; used by federation consolidation.
func (l *Log) bulkLoad(entries []Entry) {
	l.appendBatch(entries, false)
}

// Len returns the number of entries.
func (l *Log) Len() int {
	_, n, release := l.holdCold()
	defer release()
	for _, sh := range l.shards {
		sh.mu.RLock()
		n += uint64(len(sh.recs))
		sh.mu.RUnlock()
	}
	return int(n)
}

// noRelease is holdCold's release for a log without a cold side.
func noRelease() {}

// holdCold keeps the cold side still for one read: until release runs,
// no cut, expiry or reset moves entries between the index and the
// shards, so the read sees each entry once. Reads share the hold; cuts
// and retention take it exclusively. cut is the checkpoint cut
// (entries at or below it are cold, every shard record is above it)
// and n the number of cold entries; both are 0 for an in-memory log.
func (l *Log) holdCold() (cut, n uint64, release func()) {
	d := l.cold
	if d == nil {
		return 0, 0, noRelease
	}
	d.mu.RLock()
	return d.ckptSeq, d.count, d.mu.RUnlock
}

// coldRun returns the checkpointed entries with lo < seq <= hi as one
// run, sorted by seq (see Durable.coldRun), or none; an in-memory log
// has none. The caller holds the cold side (holdCold).
func (l *Log) coldRun(lo, hi uint64, limit int) ([]run, error) {
	d := l.cold
	if d == nil || lo >= hi {
		return nil, nil
	}
	rn, err := d.coldRun(lo, hi, limit)
	if err != nil || len(rn.recs) == 0 {
		return nil, err
	}
	return []run{rn}, nil
}

// allRuns returns every entry as runs: the cold prefix as one, then
// each shard's. A reader with no error result calls it; a failed index
// read goes to the store's OnErr, and the read serves the in-memory
// tail alone.
func (l *Log) allRuns() []run {
	cut, _, release := l.holdCold()
	runs, err := l.coldRun(0, cut, 0)
	runs = append(runs, l.runs(nil)...)
	release()
	if err != nil {
		l.cold.report(err)
	}
	return runs
}

// fence returns the last assigned sequence number, read while no
// append is between its sequence assignment and its shard put (appends
// hold addMu's read side across both): every record with a seq at or
// below it is in its shard, and every later append takes a higher one.
func (l *Log) fence() uint64 {
	l.addMu.Lock()
	defer l.addMu.Unlock()
	return l.seq.Load()
}

// seqRuns copies, shard by shard under its read lock, the records with
// lo < seq <= hi (only the limit lowest when limit > 0) with their
// dictionary: two binary searches a shard, since put keeps each in seq
// order. hi is a fenced sequence number, so no append racing the read
// can still land at or below it.
func (l *Log) seqRuns(lo, hi uint64, limit int) []run {
	out := make([]run, 0, len(l.shards))
	for _, sh := range l.shards {
		sh.mu.RLock()
		i, j := sh.above(lo), sh.above(hi)
		if limit > 0 {
			j = min(j, i+limit)
		}
		if i < j {
			out = append(out, run{recs: slices.Clone(sh.recs[i:j]), d: sh.dict})
		}
		sh.mu.RUnlock()
	}
	return out
}

// runsBefore returns each shard's records with seq <= cur, a fenced
// sequence number, with their dictionary. It aliases shard storage
// rather than copying it, which is safe for the cut, the only caller:
// a later put carries a seq above cur, so it writes only past the
// prefix (the capacity-capped slice keeps append from reusing it), and
// retention, Reset and dropBefore install a fresh array rather than
// write into this one; retention and the cut both hold Durable.mu
// exclusively besides.
func (l *Log) runsBefore(cur uint64) []run {
	out := make([]run, 0, len(l.shards))
	for _, sh := range l.shards {
		sh.mu.RLock()
		if k := sh.above(cur); k > 0 {
			out = append(out, run{recs: sh.recs[:k:k], d: sh.dict})
		}
		sh.mu.RUnlock()
	}
	return out
}

// dropBefore drops each shard's records with seq <= cur: the ones a
// committed cut moved into the index. The survivors move to a new
// array, so the dropped ones' memory is freed.
func (l *Log) dropBefore(cur uint64) {
	for _, sh := range l.shards {
		sh.mu.Lock()
		if k := sh.above(cur); k > 0 {
			sh.recs = slices.Clone(sh.recs[k:])
		}
		sh.mu.Unlock()
	}
}

// Snapshot returns a copy of the entries in append order (ascending
// sequence number — the deterministic total order the sequence
// invariant guarantees): a durable log's checkpointed prefix, read
// from its index, then the in-memory tail. Entry values are rebuilt
// from compact records, so their times carry no monotonic clock
// reading, as entries recovered from the durable store or read off
// the wire do; a checkpointed entry's time carries its zone offset
// only, as a recovered one does.
func (l *Log) Snapshot() []Entry { return l.entries(nil) }

// entries returns the entries keep accepts (every one when keep is
// nil) in append order, the cold prefix merged in as one more run.
func (l *Log) entries(keep func(Entry) bool) []Entry {
	runs := l.allRuns()
	if keep != nil {
		for i := range runs {
			rn := &runs[i]
			kept := rn.recs[:0]
			for j := range rn.recs {
				if keep(rn.d.entry(&rn.recs[j])) {
					kept = append(kept, rn.recs[j])
				}
			}
			rn.recs = kept
		}
	}
	return mergeEntries(runs, bySeq)
}

// Page returns, in append order, at most limit entries with sequence
// numbers above after, and the sequence number of the last one (after
// when there is none): a bounded read for paging through the log from
// the zero sequence number. Each shard contributes at most its limit
// lowest entries above after, found by binary search, so an in-memory
// page costs O(shards·(log n + limit)) whatever the log's size; a
// durable log's checkpointed part is one index scan of every entry
// above after. A page ends at a fenced sequence number, so a racing
// append is on this page or a later one. An error reading the
// checkpointed part fails the page, which never skips past it.
func (l *Log) Page(after uint64, limit int) ([]Entry, uint64, error) {
	if limit <= 0 {
		return nil, after, nil
	}
	cut, _, release := l.holdCold()
	runs, err := l.coldRun(after, cut, limit)
	if err == nil {
		runs = append(runs, l.seqRuns(after, l.fence(), limit)...)
	}
	release()
	if err != nil {
		return nil, after, err
	}
	out := make([]Entry, 0, limit)
	next := after
	merge(runs, bySeq, func(d *dict, r *record) {
		if len(out) < limit {
			out = append(out, d.entry(r))
			next = r.seq
		}
	})
	return out, next, nil
}

// Reset discards all entries; used between training periods. The
// sequence counter is not rewound — sequence numbers stay unique for
// the life of the log — but the index epoch advances, invalidating
// outstanding cursors. A durable log empties its index too.
func (l *Log) Reset() {
	// The epoch moves before any shard does: a reader that observes a
	// changed shard then sees the move (see ExportDelta).
	l.floor.Store(l.seq.Load())
	l.epoch.Add(1)
	if d := l.cold; d != nil {
		if _, err := d.retain(nil, func(int64, Status) bool { return false }, nil); err != nil {
			d.report(err)
		}
		return
	}
	for _, sh := range l.shards {
		sh.mu.Lock()
		// A fresh record array: a checkpoint cut may still alias the old
		// one (see runsBefore), so no writer reuses shard storage below
		// the end of its records. The dictionary is dropped with the
		// entries.
		sh.recs = nil
		sh.dict = dict{}
		sh.groups = nil
		sh.gen++
		sh.stats = statsAcc{}
		sh.mu.Unlock()
	}
}

// Grow pre-allocates capacity for about n further entries, spread
// evenly across the shards. Callers that can bound the expected
// volume (a simulation epoch, a day's expected traffic) use it to
// skip the per-shard reallocation ramp during ingestion; it never
// shrinks.
func (l *Log) Grow(n int) {
	if n <= 0 {
		return
	}
	per := (n + len(l.shards) - 1) / len(l.shards)
	// Hash routing is uneven on small n; leave headroom so the fuller
	// stripes do not immediately regrow.
	per += per/8 + 8
	for _, sh := range l.shards {
		sh.mu.Lock()
		if need := len(sh.recs) + per; cap(sh.recs) < need {
			grown := make([]record, len(sh.recs), need)
			copy(grown, sh.recs)
			sh.recs = grown
		}
		sh.mu.Unlock()
	}
}

// ErrExportInvalidated reports that an ExportCursor was cut loose by
// a structural log change (Reset/Expire/Rotate): the seq-contiguous
// ranges the cursor was exporting no longer exist, so the exporter
// must renegotiate from scratch rather than silently skip entries.
var ErrExportInvalidated = errors.New("audit: export cursor invalidated by a structural log change")

// ExportCursor marks how far a seq-ranged exporter (the wire
// federation streamer) has read the log. Unlike Cursor, whose
// consumers tolerate resyncs, an export cursor guarantees the
// contiguous range property: successive ExportDelta calls return
// exactly the entries with c.Seq() < seq <= next.Seq(), no gap and no
// duplicate, or fail with ErrExportInvalidated. The zero cursor
// starts from the beginning.
type ExportCursor struct {
	seq   uint64
	epoch uint64
	valid bool // false for the zero cursor
	// cold holds, while the cursor is behind a durable log's checkpoint
	// cut, the checkpointed records it has yet to export, in seq order
	// with their own dictionary: read by one index scan per cut and
	// consumed by prefix, so exporting n checkpointed entries costs
	// O(n log n) whatever the batch size.
	cold run
}

// Seq returns the highest sequence number the cursor has exported.
func (c ExportCursor) Seq() uint64 { return c.seq }

// ExportDelta returns the entries appended since the cursor in
// ascending sequence order — exactly the contiguous range
// (c.Seq(), next.Seq()] — advancing the cursor. max bounds the batch
// (0 means unbounded). The cost is O(delta), not O(log): the shards'
// part of the range is a binary search a shard, and a durable log's
// checkpointed part is one seq-ordered index read. A structural change
// (Reset/Expire/Rotate) invalidates the cursor and every later call
// returns ErrExportInvalidated.
func (l *Log) ExportDelta(c ExportCursor, max int) ([]Entry, ExportCursor, error) {
	ep := l.epoch.Load()
	if !c.valid {
		c = ExportCursor{seq: l.floor.Load(), epoch: ep, valid: true}
	}
	if c.epoch != ep {
		return nil, c, ErrExportInvalidated
	}
	cut, _, release := l.holdCold()
	defer release()
	hi := l.fence()
	if max > 0 && hi > c.seq+uint64(max) {
		hi = c.seq + uint64(max)
	}
	if hi <= c.seq {
		return nil, c, nil
	}
	var runs []run
	if c.seq < cut {
		// The cursor is behind the checkpoint cut. Export the
		// checkpointed part of the range from the cursor's cold queue,
		// read from the index when empty, then the tail from the shards,
		// where every record lies above the cut.
		q := c.cold
		if len(q.recs) == 0 {
			rs, err := l.coldRun(c.seq, cut, 0)
			if err != nil {
				return nil, c, err
			}
			if len(rs) > 0 {
				q = rs[0]
			}
			if uint64(len(q.recs)) != cut-c.seq {
				return nil, c, ErrExportInvalidated
			}
		}
		k := min(hi-c.seq, uint64(len(q.recs)))
		runs = []run{{recs: q.recs[:k], d: q.d}}
		c = ExportCursor{seq: c.seq + k, epoch: ep, valid: true, cold: run{recs: q.recs[k:], d: q.d}}
		if c.seq == hi || c.seq < cut {
			// Done, or the queue, read before a later cut, ends below it:
			// the next call reads the rest from the index.
			return mergeEntries(runs, bySeq), c, nil
		}
	}
	tail := l.seqRuns(c.seq, hi, 0)
	n := uint64(0)
	for i := range tail {
		n += uint64(len(tail[i].recs))
	}
	// Structural ops move the epoch before they change a shard, so an
	// unmoved epoch means every record read indexes the dictionary
	// copied with its shard's run. A short count means entries inside
	// the range are gone (a retention trim's holes): the contiguity
	// guarantee cannot be kept.
	if n != hi-c.seq || l.epoch.Load() != ep {
		return nil, c, ErrExportInvalidated
	}
	return mergeEntries(append(runs, tail...), bySeq), ExportCursor{seq: hi, epoch: ep, valid: true}, nil
}

// ToPolicy builds the ground policy P_AL from entries: one rule per
// distinct (data, purpose, authorized) row. Per Definition 7 the
// policy is tied to the audit log; the paper's coverage arithmetic
// counts one rule per audit row, and Policy.Add deduplicates exact
// repeats, matching the Fig. 3 treatment where each row is a distinct
// rule. Pass the entries to convert (e.g. entries read from a file);
// a live log's P_AL comes from its index through GroupsPolicy.
func ToPolicy(name string, entries []Entry) *policy.Policy {
	p := policy.New(name)
	for _, e := range entries {
		p.Add(e.Rule())
	}
	return p
}

// Stats summarizes a set of entries.
type Stats struct {
	Total      int
	Allowed    int
	Denied     int
	Exceptions int
	Regular    int
	Users      int
	First      time.Time
	Last       time.Time
}

// Summarize computes Stats over entries.
func Summarize(entries []Entry) Stats {
	var s Stats
	users := make(map[string]bool)
	for _, e := range entries {
		s.Total++
		if e.Op == Allow {
			s.Allowed++
		} else {
			s.Denied++
		}
		if e.Status == Exception {
			s.Exceptions++
		} else {
			s.Regular++
		}
		users[vocab.Norm(e.User)] = true
		if s.First.IsZero() || e.Time.Before(s.First) {
			s.First = e.Time
		}
		if e.Time.After(s.Last) {
			s.Last = e.Time
		}
	}
	s.Users = len(users)
	return s
}
