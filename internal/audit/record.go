package audit

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Retained-entry layout. A shard keeps its entries as records: fixed
// size and free of pointers, so the log's largest term costs 48 bytes
// an entry and the garbage collector never scans it. A record names its
// strings by id in the shard's dictionary and its zone by id in the
// shard's zone table; Entry values are rebuilt from records only at the
// API edge (Snapshot, Delta, ExportDelta, Rotate, ...).

// record is one retained audit entry.
type record struct {
	seq  uint64
	ns   int64  // Time.UnixNano()
	zone uint32 // dict.zones id; 0 is UTC

	// dict.strs ids; 0 is "".
	user, data, purpose, authorized, site, reason uint32

	op, status uint8
}

// dict is a shard's string dictionary and zone table. They only grow,
// under the shard's write lock, while the shard's records keep their
// ids; Reset and retention replace them (never truncate them in place)
// when they re-intern the surviving records. A copy of a dict taken
// under the read lock therefore resolves every id of the records copied
// with it, after the lock is released.
type dict struct {
	strs    []string // prima:phi — interned column values by id; strs[0] is ""
	ids     map[string]uint32
	zones   []*time.Location // zones[0] is time.UTC
	zoneIDs map[zoneKey]uint32
	// triples maps a (data, purpose, authorized) triple to its ids, so
	// an append resolves the group columns, which repeat far more than
	// users do, with one lookup instead of three.
	triples map[groupName]groupKey
}

// zoneKey identifies a table zone: its Location, or, for an unnamed
// Location, its offset. Decoders and time.Parse build an unnamed fixed
// zone per entry; keyed by offset, those share one slot.
type zoneKey struct {
	loc *time.Location
	off int
}

// intern returns s's id, adding s on first sight.
func (d *dict) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.ids == nil {
		d.strs = []string{""}
		d.ids = make(map[string]uint32)
	}
	id := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.ids[s] = id
	return id
}

// internBytes is intern for a decoded record's bytes: the lookup does
// not allocate, so only a first-seen value is copied into a string.
func (d *dict) internBytes(b []byte) uint32 {
	if id, ok := d.ids[string(b)]; ok || len(b) == 0 {
		return id
	}
	return d.intern(string(b))
}

// zone returns the id of t's Location, adding it on first sight.
func (d *dict) zone(t time.Time) uint32 {
	loc := t.Location()
	if loc == time.UTC {
		return 0
	}
	k := zoneKey{loc: loc}
	if loc.String() == "" {
		_, off := t.Zone()
		k = zoneKey{off: off}
	}
	return d.zoneID(k, loc)
}

// zoneOffset returns the id of the unnamed fixed zone at off seconds
// east of UTC, the zone a decoded record carries; offset 0 is UTC.
func (d *dict) zoneOffset(off int) uint32 {
	if off == 0 {
		return 0
	}
	k := zoneKey{off: off}
	if id, ok := d.zoneIDs[k]; ok {
		return id
	}
	return d.zoneID(k, time.FixedZone("", off))
}

func (d *dict) zoneID(k zoneKey, loc *time.Location) uint32 {
	if id, ok := d.zoneIDs[k]; ok {
		return id
	}
	if d.zoneIDs == nil {
		d.zones = []*time.Location{time.UTC}
		d.zoneIDs = make(map[zoneKey]uint32)
	}
	id := uint32(len(d.zones))
	d.zones = append(d.zones, loc)
	d.zoneIDs[k] = id
	return id
}

// record interns e into a record with sequence number seq.
func (d *dict) record(seq uint64, e *Entry) record {
	k, ok := d.triples[groupName{e.Data, e.Purpose, e.Authorized}]
	if !ok {
		k = groupKey{d.intern(e.Data), d.intern(e.Purpose), d.intern(e.Authorized)}
		if d.triples == nil {
			d.triples = make(map[groupName]groupKey)
		}
		// Key by the dictionary's copies, so the cache pins no others.
		d.triples[groupName{d.strs[k.data], d.strs[k.purpose], d.strs[k.authorized]}] = k
	}
	return record{
		seq:        seq,
		ns:         e.Time.UnixNano(),
		zone:       d.zone(e.Time),
		user:       d.intern(e.User),
		data:       k.data,
		purpose:    k.purpose,
		authorized: k.authorized,
		site:       d.intern(e.Site),
		reason:     d.intern(e.Reason),
		op:         uint8(e.Op),
		status:     uint8(e.Status),
	}
}

// time rebuilds the instant ns in zone id z. The result carries no
// monotonic clock reading.
func (d *dict) time(ns int64, z uint32) time.Time {
	t := time.Unix(0, ns)
	if z == 0 {
		return t.UTC()
	}
	return t.In(d.zones[z])
}

// entry rebuilds the Entry r holds.
func (d *dict) entry(r *record) Entry {
	return Entry{
		Time:       d.time(r.ns, r.zone),
		Op:         Op(r.op),
		User:       d.strs[r.user],
		Data:       d.strs[r.data],
		Purpose:    d.strs[r.purpose],
		Authorized: d.strs[r.authorized],
		Status:     Status(r.status),
		Site:       d.strs[r.site],
		Reason:     d.strs[r.reason],
	}
}

// reintern moves r's ids from old into d.
func (d *dict) reintern(r *record, old *dict) {
	if r.zone != 0 {
		r.zone = d.zone(old.time(r.ns, r.zone))
	}
	for _, id := range [...]*uint32{&r.user, &r.data, &r.purpose, &r.authorized, &r.site, &r.reason} {
		*id = d.intern(old.strs[*id])
	}
}

// run is one shard's records, copied under its read lock, with the
// dictionary they index. src is the run's source index in a
// federation, the merge's tie-break after the order's key; it is 0 for
// every run of a single log.
type run struct {
	recs []record
	d    dict
	src  int
}

// order names a record order. A merge emits records by (key, src,
// seq): the order's key, then the run's source index, then the
// sequence number.
type order uint8

const (
	bySeq  order = iota // append order: the key is the seq
	byTime              // chronological: the key is the instant
)

// key returns r's sort key under o as an unsigned integer that orders
// as the key does (an instant has its sign bit flipped).
func (o order) key(r *record) uint64 {
	if o == byTime {
		return uint64(r.ns) ^ 1<<63
	}
	return r.seq
}

// cmp orders the records of one run: by key, then seq.
func (o order) cmp(a, b record) int {
	if c := cmp.Compare(o.key(&a), o.key(&b)); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortRecords sorts recs by o unless they already are: a shard keeps
// its records in sequence order (shard.put). The check compares keys
// inline; a call through o.cmp per record took longer than merging a
// lone run.
func sortRecords(recs []record, o order) {
	for i := 1; i < len(recs); i++ {
		a, b := &recs[i-1], &recs[i]
		if ka, kb := o.key(a), o.key(b); ka > kb || ka == kb && a.seq > b.seq {
			slices.SortFunc(recs, o.cmp)
			return
		}
	}
}

// sortRuns sorts every run by o, concurrently when GOMAXPROCS allows
// and the runs hold enough records to pay for the goroutines.
func sortRuns(runs []run, o order) {
	total := 0
	for i := range runs {
		total += len(runs[i].recs)
	}
	if len(runs) < 2 || total <= 4096 || runtime.GOMAXPROCS(0) == 1 {
		for i := range runs {
			sortRecords(runs[i].recs, o)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(recs []record) {
			defer wg.Done()
			sortRecords(recs, o)
		}(runs[i].recs)
	}
	wg.Wait()
}

// lowestSeqs collects the limit lowest-seq records pushed into it
// (every record when limit is 0) in O(n log limit) time and O(limit)
// memory: at 2*limit records it sorts and cuts back to limit.
type lowestSeqs struct {
	recs  []record
	limit int
}

func (c *lowestSeqs) push(r record) {
	c.recs = append(c.recs, r)
	if c.limit > 0 && len(c.recs) == 2*c.limit {
		slices.SortFunc(c.recs, bySeq.cmp)
		c.recs = c.recs[:c.limit]
	}
}

// sorted returns the kept records in seq order.
func (c *lowestSeqs) sorted() []record {
	sortRecords(c.recs, bySeq)
	if c.limit > 0 && len(c.recs) > c.limit {
		c.recs = c.recs[:c.limit]
	}
	return c.recs
}

// cursor is a run's read position in a merge, with the sort key of
// the record at it.
type cursor struct {
	key uint64
	src int
	pos int
	rn  *run
}

// load caches the key of the record at c.pos.
func (c *cursor) load(o order) { c.key = o.key(&c.rn.recs[c.pos]) }

func (c *cursor) less(d *cursor) bool {
	if c.key != d.key {
		return c.key < d.key
	}
	if c.src != d.src {
		return c.src < d.src
	}
	return c.rn.recs[c.pos].seq < d.rn.recs[d.pos].seq
}

// cursorHeap is a min-heap of the cursors of the runs a merge has not
// exhausted. The merge only ever fixes or removes the root, so the
// sift-down is typed and hand-rolled.
type cursorHeap []cursor

// siftDown restores the heap property below i after h[i] changed:
// lesser children move up into the hole until c's place is found.
func (h cursorHeap) siftDown(i int) {
	c := h[i]
	for {
		least := 2*i + 1
		if least >= len(h) {
			break
		}
		if r := least + 1; r < len(h) && h[r].less(&h[least]) {
			least = r
		}
		if !h[least].less(&c) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = c
}

// merge sorts each run by o, then calls emit with each record of all
// runs, in (key, src, seq) order, and the dictionary it indexes: a
// walk of a lone run, else a min-heap over the run heads.
func merge(runs []run, o order, emit func(d *dict, r *record)) {
	sortRuns(runs, o)
	if len(runs) == 1 {
		rn := &runs[0]
		for i := range rn.recs {
			emit(&rn.d, &rn.recs[i])
		}
		return
	}
	h := make(cursorHeap, 0, len(runs))
	for i := range runs {
		if len(runs[i].recs) > 0 {
			c := cursor{src: runs[i].src, rn: &runs[i]}
			c.load(o)
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	for len(h) > 0 {
		c := &h[0]
		emit(&c.rn.d, &c.rn.recs[c.pos])
		if c.pos++; c.pos < len(c.rn.recs) {
			c.load(o)
		} else if h[0], h = h[len(h)-1], h[:len(h)-1]; len(h) == 0 {
			return
		}
		h.siftDown(0)
	}
}

// mergeEntries merges runs by o into entries.
func mergeEntries(runs []run, o order) []Entry {
	n := 0
	for i := range runs {
		n += len(runs[i].recs)
	}
	out := make([]Entry, 0, n)
	merge(runs, o, func(d *dict, r *record) { out = append(out, d.entry(r)) })
	return out
}

// runs copies, shard by shard under its read lock, the records keep
// selects (every record when keep is nil) with their dictionary.
// Shards are read one at a time; a concurrent append may or may not be
// included, exactly like a racing read of a single-mutex log.
func (l *Log) runs(keep func(r *record) bool) []run {
	out := make([]run, 0, len(l.shards))
	for _, sh := range l.shards {
		sh.mu.RLock()
		var recs []record
		if keep == nil {
			recs = slices.Clone(sh.recs)
		} else {
			for i := range sh.recs {
				if keep(&sh.recs[i]) {
					recs = append(recs, sh.recs[i])
				}
			}
		}
		d := sh.dict
		sh.mu.RUnlock()
		if len(recs) > 0 {
			out = append(out, run{recs: recs, d: d})
		}
	}
	return out
}

// cutoff is a time bound compared against record nanoseconds: before
// reports ns's instant Before the bound for every instant an entry can
// carry, bounds outside the int64-nanosecond range included.
type cutoff struct {
	ns  int64
	all bool // the bound lies after every representable instant
}

func newCutoff(t time.Time) cutoff {
	switch {
	case t.After(maxTime):
		return cutoff{all: true}
	case t.Before(minTime):
		return cutoff{ns: minTime.UnixNano()}
	}
	return cutoff{ns: t.UnixNano()}
}

func (c cutoff) before(ns int64) bool { return c.all || ns < c.ns }
