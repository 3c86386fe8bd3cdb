package audit

import (
	"cmp"
	"slices"
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
// dictionary they index.
type run struct {
	recs []record
	d    dict
}

// bySeq orders records by sequence number: append order.
func bySeq(a, b record) int { return cmp.Compare(a.seq, b.seq) }

// byTime orders records chronologically, same-instant records in
// append order.
func byTime(a, b record) int {
	if c := cmp.Compare(a.ns, b.ns); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortRecords sorts recs by order unless they already are: a shard
// keeps its records in sequence order (shard.put).
func sortRecords(recs []record, order func(a, b record) int) {
	if !slices.IsSortedFunc(recs, order) {
		slices.SortFunc(recs, order)
	}
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
		slices.SortFunc(c.recs, bySeq)
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

// merge sorts each run by order, then walks the records of all runs in
// order, calling emit with each record and the dictionary it indexes.
// The run count is a shard count, so a linear head scan beats heap
// bookkeeping.
func merge(runs []run, order func(a, b record) int, emit func(d *dict, r *record)) {
	for i := range runs {
		sortRecords(runs[i].recs, order)
	}
	heads := make([]int, len(runs))
	for {
		best := -1
		for i := range runs {
			if heads[i] == len(runs[i].recs) {
				continue
			}
			if best == -1 || order(runs[i].recs[heads[i]], runs[best].recs[heads[best]]) < 0 {
				best = i
			}
		}
		if best == -1 {
			return
		}
		emit(&runs[best].d, &runs[best].recs[heads[best]])
		heads[best]++
	}
}

// mergeEntries merges runs by order into entries.
func mergeEntries(runs []run, order func(a, b record) int) []Entry {
	n := 0
	for i := range runs {
		n += len(runs[i].recs)
	}
	out := make([]Entry, 0, n)
	merge(runs, order, func(d *dict, r *record) { out = append(out, d.entry(r)) })
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
