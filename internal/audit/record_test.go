package audit

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/policy"
	"repro/internal/storage"
)

// TestRecordLayout pins the retained-entry layout: a shard record is at
// most 48 bytes and holds no pointer, so the collector never scans a
// shard's entries.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 48 {
		t.Errorf("record is %d bytes, want at most 48", n)
	}
	var walk func(reflect.Type, string)
	walk = func(rt reflect.Type, path string) {
		switch rt.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Array:
			walk(rt.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < rt.NumField(); i++ {
				walk(rt.Field(i).Type, path+"."+rt.Field(i).Name)
			}
		default:
			t.Errorf("record%s is a %s, which holds a pointer", path, rt.Kind())
		}
	}
	walk(reflect.TypeOf(record{}), "")
}

// compactModel is the reference the compact log is checked against: the
// entries as a plain slice, each with the sequence number the log
// assigned it, and times stripped of their monotonic reading.
type compactModel struct {
	site    string
	seq     uint64
	seqs    []uint64
	entries []Entry
}

func (m *compactModel) add(e Entry) {
	e.Time = e.Time.Round(0)
	if e.Site == "" {
		e.Site = m.site
	}
	m.seq++
	m.seqs = append(m.seqs, m.seq)
	m.entries = append(m.entries, e)
}

// keep retains the entries keep accepts and returns the others.
func (m *compactModel) keep(keep func(Entry) bool) []Entry {
	var gone []Entry
	seqs, entries := m.seqs[:0], m.entries[:0]
	for i, e := range m.entries {
		if keep(e) {
			seqs = append(seqs, m.seqs[i])
			entries = append(entries, e)
		} else {
			gone = append(gone, e)
		}
	}
	m.seqs, m.entries = seqs, entries
	return gone
}

func (m *compactModel) filter(keep func(Entry) bool) []Entry {
	var out []Entry
	for _, e := range m.entries {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// groups computes the index view by a direct rescan of the model.
func (m *compactModel) groups() []Group {
	type name struct{ d, p, a string }
	acc := map[name]*Group{}
	for i, e := range m.entries {
		k := name{e.Data, e.Purpose, e.Authorized}
		g := acc[k]
		if g == nil {
			g = &Group{Data: e.Data, Purpose: e.Purpose, Authorized: e.Authorized,
				Key: policy.TripleKey(e.Data, e.Purpose, e.Authorized), FirstSeq: m.seqs[i]}
			acc[k] = g
		}
		g.Total++
		if e.Status != Exception || e.Op != Allow {
			continue
		}
		g.Practice++
		if g.Users == nil {
			g.Users = map[string]int{}
		}
		g.Users[e.User]++
		if OffHours(e.Time) {
			g.OffHours++
		}
		if d := UTCDay(e.Time); !containsDay(g.Days, d) {
			g.Days = append(g.Days, d)
			sort.Slice(g.Days, func(i, j int) bool { return g.Days[i] < g.Days[j] })
		}
		if g.First.IsZero() || e.Time.Before(g.First) {
			g.First = e.Time
		}
		if e.Time.After(g.Last) {
			g.Last = e.Time
		}
	}
	out := make([]Group, 0, len(acc))
	for _, g := range acc {
		g.PracticeUsers = len(g.Users)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Data != b.Data {
			return a.Data < b.Data
		}
		if a.Purpose != b.Purpose {
			return a.Purpose < b.Purpose
		}
		return a.Authorized < b.Authorized
	})
	return out
}

func containsDay(days []int32, d int32) bool {
	for _, x := range days {
		if x == d {
			return true
		}
	}
	return false
}

// walEntries replays the durable store's WAL in dir and decodes every
// record, in LSN order.
func walEntries(t *testing.T, dir string) []stamped {
	t.Helper()
	var out []stamped
	if _, err := storage.Replay(filepath.Join(dir, "wal"), nil, func(lsn uint64, p []byte) error {
		seq, e, err := decodeStamped(p)
		out = append(out, stamped{seq: seq, e: e})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompactLogMatchesEntries differentially checks the compact record
// layout: seeded single and batch appends of entries with monotonic,
// fixed-zone, local and UTC times, interleaved with Expire, Rotate and
// Reset, read back through every view — window bounds with their
// zones, pages of Page — equal a plain []Entry model. The durable variant runs the
// same steps through a durable store's sink, with background
// checkpoints interleaved, and checks that the WAL holds every entry
// above the checkpoint cut in append order. A checkpointed entry keeps
// its instant and zone offset but not its zone's name, so the durable
// variant compares times by instant and offset.
func TestCompactLogMatchesEntries(t *testing.T) {
	t.Run("memory", func(t *testing.T) { compactLogDifferential(t, false) })
	t.Run("durable", func(t *testing.T) { compactLogDifferential(t, true) })
}

// offsetZone returns t at its instant in an unnamed zone at its
// offset, as a checkpointed entry comes back.
func offsetZone(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	if _, off := t.Zone(); off != 0 {
		return time.Unix(0, t.UnixNano()).In(time.FixedZone("", off))
	}
	return time.Unix(0, t.UnixNano()).UTC()
}

func compactLogDifferential(t *testing.T, durable bool) {
	rng := rand.New(rand.NewSource(19))
	est := time.FixedZone("EST", -5*3600)
	base := time.Now()
	users := []string{"alice", "bob", "carol", "Dave ", "erin", "frank", "grace", "heidi"}
	data := []string{"referral", "psychiatry", "lab results", "billing", "x-ray"}
	purposes := []string{"treatment", "research", "billing"}
	roles := []string{"nurse", "physician", "clerk"}
	sites := []string{"", "", "east", "west"}
	reasons := []string{"", "", "code blue", "consult <urgent>"}
	gen := func() Entry {
		at := base.Add(time.Duration(rng.Intn(48*60)-24*60) * time.Minute)
		switch rng.Intn(4) {
		case 1:
			at = at.In(est)
		case 2:
			at = at.In(time.Local)
		case 3:
			at = at.UTC()
		} // case 0 keeps time.Now's monotonic reading
		e := Entry{
			Time:       at,
			Op:         Op(rng.Intn(2)),
			User:       users[rng.Intn(len(users))],
			Data:       data[rng.Intn(len(data))],
			Purpose:    purposes[rng.Intn(len(purposes))],
			Authorized: roles[rng.Intn(len(roles))],
			Status:     Status(rng.Intn(2)),
			Site:       sites[rng.Intn(len(sites))],
		}
		if e.Status == Exception {
			e.Reason = reasons[rng.Intn(len(reasons))]
		}
		return e
	}

	dir := t.TempDir()
	l := NewLog("main")
	var d *Durable
	if durable {
		var err error
		d, _, err = OpenDurable("main", dir, DurableOptions{NoSync: true, OnErr: func(err error) { t.Error(err) }})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		l = d.Log()
	}
	// same compares a view with the model's, by instant and offset for
	// the durable log.
	same := func(got, want any) bool {
		if !durable {
			return reflect.DeepEqual(got, want)
		}
		zoneless := func(v any) any {
			switch v := v.(type) {
			case []Entry:
				out := slices.Clone(v)
				for i := range out {
					out[i].Time = offsetZone(out[i].Time)
				}
				return out
			case Stats:
				v.First, v.Last = offsetZone(v.First), offsetZone(v.Last)
				return v
			case []Group:
				out := slices.Clone(v)
				for i := range out {
					out[i].First, out[i].Last = offsetZone(out[i].First), offsetZone(out[i].Last)
				}
				return out
			}
			return v
		}
		return reflect.DeepEqual(zoneless(got), zoneless(want))
	}
	m := &compactModel{site: "main"}
	var cur Cursor
	var seenLen int // model entries the Delta cursor has returned
	var exp ExportCursor
	var exported []Entry
	exportable := true

	check := func(step int, what string) {
		t.Helper()
		want := m.entries
		fail := func(view string, got, want any) {
			t.Helper()
			t.Fatalf("step %d (%s): %s differs\ngot  %v\nwant %v", step, what, view, got, want)
		}
		if got := l.Snapshot(); len(got)+len(want) > 0 && !same(got, want) {
			fail("Snapshot", got, want)
		}
		if got, w := jsonlBytes(t, l.Snapshot()), jsonlBytes(t, want); !bytes.Equal(got, w) {
			fail("WriteJSONL", string(got), string(w))
		}
		pick := func(e Entry) bool { return e.User == "alice" || e.Reason != "" }
		if got, w := l.Filtered(pick), m.filter(pick); !same(got, w) {
			fail("Filtered", got, w)
		}
		since := base.Add(time.Duration(rng.Intn(48*60)-24*60) * time.Minute)
		if got, w := l.Since(since), m.filter(func(e Entry) bool { return !e.Time.Before(since) }); !same(got, w) {
			fail("Since", got, w)
		}
		if got, w := l.Exceptions(), m.filter(func(e Entry) bool { return e.Status == Exception }); !same(got, w) {
			fail("Exceptions", got, w)
		}
		byTime := append([]Entry(nil), want...)
		SortByTime(byTime)
		if got := l.SnapshotByTime(); len(got)+len(byTime) > 0 && !same(got, byTime) {
			fail("SnapshotByTime", got, byTime)
		}
		if got, w := l.Summary(), Summarize(want); !same(got, w) {
			fail("Summary", got, w)
		}
		if got, w := l.Groups(), m.groups(); len(got)+len(w) > 0 && !same(got, w) {
			fail("Groups", got, w)
		}

		var paged []Entry
		for after := uint64(0); ; {
			page, next, err := l.Page(after, 1+rng.Intn(40))
			if err != nil {
				fail("Page error", err, nil)
			}
			if next == after {
				break
			}
			paged, after = append(paged, page...), next
		}
		if len(paged)+len(want) > 0 && !same(paged, want) {
			fail("Page", paged, want)
		}

		delta, next, resync := l.Delta(cur)
		cur = next
		if resync {
			seenLen = 0
		}
		if w := want[seenLen:]; len(delta)+len(w) > 0 && !same(delta, w) {
			fail(fmt.Sprintf("Delta (resync %v)", resync), delta, w)
		}
		seenLen = len(want)

		if !exportable {
			if _, _, err := l.ExportDelta(ExportCursor{}, 0); !errors.Is(err, ErrExportInvalidated) && len(want) > 0 {
				fail("ExportDelta error on a trimmed log", err, ErrExportInvalidated)
			}
			return
		}
		for {
			batch, next, err := l.ExportDelta(exp, 1+rng.Intn(40))
			if err != nil {
				fail("ExportDelta error", err, nil)
			}
			if len(batch) == 0 {
				break
			}
			exp = next
			exported = append(exported, batch...)
		}
		if len(exported)+len(want) > 0 && !same(exported, want) {
			fail("ExportDelta", exported, want)
		}
	}

	var appended []Entry // every model entry, retention aside
	for step := 0; step < 300; step++ {
		var what string
		switch k := rng.Intn(20); {
		case k < 7:
			what = "single append"
			e := gen()
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
			m.add(e)
			appended = append(appended, m.entries[len(m.entries)-1])
		case k < 14:
			what = "batch append"
			batch := make([]Entry, 2+rng.Intn(30))
			for i := range batch {
				batch[i] = gen()
			}
			if err := l.Append(batch...); err != nil {
				t.Fatal(err)
			}
			for _, e := range batch {
				m.add(e)
				appended = append(appended, m.entries[len(m.entries)-1])
			}
		case k < 15 && durable:
			what = "background checkpoint"
			// Wake the checkpointer and go on: its cut races the steps
			// that follow.
			d.wake <- struct{}{}
		case k < 16 && durable:
			what = "WAL"
			d.Sync()
			// Checkpoints truncate the WAL a segment at a time: it holds
			// a run of the latest entries that reaches below the cut.
			recs := walEntries(t, dir)
			first := len(appended) - len(recs)
			if cut := d.CheckpointSeq(); first < 0 || uint64(first) > cut {
				t.Fatalf("step %d: WAL holds %d records of %d appended, cut at %d", step, len(recs), len(appended), cut)
			}
			got := make([]Entry, len(recs))
			for i, r := range recs {
				if r.seq != uint64(first+i+1) {
					t.Fatalf("step %d: WAL record %d has seq %d", step, i, r.seq)
				}
				got[i] = r.e
			}
			// Decoded times keep instant and offset, which is what JSON
			// encodes.
			if g, w := jsonlBytes(t, got), jsonlBytes(t, appended[first:]); !bytes.Equal(g, w) {
				t.Fatalf("step %d: WAL entries differ\ngot  %s\nwant %s", step, g, w)
			}
		case k < 16:
			what = "no-op"
		case k < 18:
			cut := base.Add(time.Duration(rng.Intn(48*60)-24*60) * time.Minute)
			var exCut time.Time
			if rng.Intn(2) == 0 {
				exCut = cut.Add(-time.Duration(rng.Intn(600)) * time.Minute)
			}
			what = "expire"
			wantDropped := len(m.keep(func(e Entry) bool {
				return !e.Time.Before(cut) || (e.Status == Exception && !exCut.IsZero() && !e.Time.Before(exCut))
			}))
			if got := l.Expire(cut, exCut); got != wantDropped {
				t.Fatalf("step %d: Expire dropped %d, want %d", step, got, wantDropped)
			}
			if wantDropped > 0 {
				exportable = false
			}
		case k < 19:
			what = "rotate"
			cut := base.Add(time.Duration(rng.Intn(48*60)-24*60) * time.Minute)
			want := m.keep(func(e Entry) bool { return !e.Time.Before(cut) })
			if got := l.Rotate(cut); !same(got, want) {
				t.Fatalf("step %d: Rotate returned\n%v\nwant\n%v", step, got, want)
			}
			if len(want) > 0 {
				exportable = false
			}
		default:
			what = "reset"
			l.Reset()
			m.keep(func(Entry) bool { return false })
			exportable = true
			exp, exported = ExportCursor{}, nil
		}
		check(step, what)
	}
}

// TestWindowBoundsKeepFirstAppended: of equal instants in different
// zones, the index's window bounds keep the zone of the row appended
// first — what Summarize over a Snapshot picks for First and Last —
// even when a later row sits in a lower-numbered shard.
func TestWindowBoundsKeepFirstAppended(t *testing.T) {
	l := NewLog("s")
	est := time.FixedZone("EST", -5*3600)
	first := entry(t0, "", "referral", "treatment", "nurse", Exception)
	second := entry(t0.In(est), "", "referral", "treatment", "nurse", Exception)
	// Route the EST row (seq 2) to a lower shard than the UTC row (seq 1).
	for i := 0; first.User == "" || second.User == ""; i++ {
		u := fmt.Sprintf("user%d", i)
		probe := first
		probe.User = u
		switch si := l.shardIndex(&probe); {
		case second.User == "" && si == 0:
			second.User = u
		case first.User == "" && si > 0:
			first.User = u
		}
	}
	if err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(second); err != nil {
		t.Fatal(err)
	}
	want := Summarize(l.Snapshot())
	if want.First.Location() != time.UTC || want.Last.Location() != time.UTC {
		t.Fatalf("Summarize bounds in %v and %v, want UTC", want.First.Location(), want.Last.Location())
	}
	if got := l.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("Summary = %+v, want %+v", got, want)
	}
	gs := l.Groups()
	if len(gs) != 1 {
		t.Fatalf("%d groups, want 1", len(gs))
	}
	if !reflect.DeepEqual(gs[0].First, want.First) || !reflect.DeepEqual(gs[0].Last, want.Last) {
		t.Errorf("group window [%v, %v], want [%v, %v]", gs[0].First, gs[0].Last, want.First, want.Last)
	}
}

// shardStrings returns every value the log's shard dictionaries hold.
func shardStrings(l *Log) []string {
	var out []string
	for _, sh := range l.shards {
		sh.mu.RLock()
		out = append(out, sh.strs...)
		sh.mu.RUnlock()
	}
	return out
}

func holds(l *Log, s string) bool {
	for _, v := range shardStrings(l) {
		if v == s {
			return true
		}
	}
	return false
}

// TestRetentionDropsDictionaryStrings checks that retention drops a
// value from memory with the last entry that uses it: once every entry
// of a user (and its break-glass reason) is expired, rotated or reset
// away, no shard dictionary holds the name or the reason.
func TestRetentionDropsDictionaryStrings(t *testing.T) {
	const gone, reason = "xavier", "patient collapsed in ward 7"
	early, late := t0, t0.Add(time.Hour)
	fill := func(l interface{ Append(...Entry) error }) {
		t.Helper()
		// Enough surviving users that every shard holding the expired
		// user's entries also keeps records, and is rebuilt rather than
		// emptied.
		var es []Entry
		for i := 0; i < 400; i++ {
			es = append(es, entry(late, fmt.Sprintf("user%d", i%200), "lab results", "treatment", "nurse", Regular))
		}
		x := entry(early, gone, "psychiatry", "research", "clerk", Exception)
		x.Reason = reason
		es = append(es, x, entry(early.In(time.FixedZone("EST", -5*3600)), gone, "lab results", "treatment", "nurse", Regular))
		if err := l.Append(es...); err != nil {
			t.Fatal(err)
		}
	}
	// A durable log's shards hold no records after a checkpoint; its
	// expiry rebuilds every shard from the index.
	check := func(t *testing.T, l *Log, what string) {
		t.Helper()
		for _, sh := range l.shards {
			if len(sh.recs) == 0 && l.cold == nil {
				t.Fatalf("a shard of the %s log is empty: the rebuild path is not exercised", what)
			}
		}
		for _, s := range []string{gone, reason, "psychiatry"} {
			if holds(l, s) {
				t.Errorf("after %s a shard dictionary still holds %q", what, s)
			}
		}
		if !holds(l, "user3") {
			t.Errorf("after %s a surviving user's name is gone", what)
		}
		for _, sh := range l.shards {
			if len(sh.zones) > 1 {
				t.Errorf("after %s a shard keeps %d zones, want only UTC", what, len(sh.zones))
			}
		}
	}

	t.Run("Expire", func(t *testing.T) {
		l := NewLog("s")
		fill(l)
		if !holds(l, gone) || !holds(l, reason) {
			t.Fatal("dictionary never held the values")
		}
		if n := l.Expire(late, time.Time{}); n != 2 {
			t.Fatalf("expired %d, want 2", n)
		}
		check(t, l, "Expire")
	})
	t.Run("Rotate", func(t *testing.T) {
		l := NewLog("s")
		fill(l)
		if n := len(l.Rotate(late)); n != 2 {
			t.Fatalf("rotated %d, want 2", n)
		}
		check(t, l, "Rotate")
	})
	t.Run("Reset", func(t *testing.T) {
		l := NewLog("s")
		fill(l)
		l.Reset()
		if s := shardStrings(l); len(s) != 0 {
			t.Errorf("after Reset the dictionaries hold %v", s)
		}
	})
	t.Run("DurableExpire", func(t *testing.T) {
		d, _, err := OpenDurable("s", t.TempDir(), DurableOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fill(d)
		d.Sync()
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n, err := d.Expire(late, time.Time{}); err != nil || n != 2 {
			t.Fatalf("expired %d (%v), want 2", n, err)
		}
		check(t, d.Log(), "Durable.Expire")
	})
}

// TestZoneTableSharesUnnamedOffsets checks that unnamed fixed zones,
// which decoders build one per entry, share one zone-table slot per
// offset, while named zones keep their own Location even at an equal
// offset.
func TestZoneTableSharesUnnamedOffsets(t *testing.T) {
	l := NewLogShards("s", 1)
	est, cdt := time.FixedZone("EST", -5*3600), time.FixedZone("CDT", -5*3600)
	var es []Entry
	for i := 0; i < 50; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		es = append(es,
			entry(at.In(time.FixedZone("", 3600)), "u", "d", "p", "a", Regular),
			entry(at.In(est), "u", "d", "p", "a", Regular),
			entry(at.In(cdt), "u", "d", "p", "a", Regular))
	}
	if err := l.Append(es...); err != nil {
		t.Fatal(err)
	}
	if n := len(l.shards[0].zones); n != 4 {
		t.Errorf("zone table holds %d zones, want UTC, +01:00, EST and CDT", n)
	}
	for i, e := range l.Snapshot() {
		loc := e.Time.Location()
		switch _, off := e.Time.Zone(); i % 3 {
		case 0:
			if off != 3600 || loc.String() != "" {
				t.Fatalf("entry %d in zone %v, want the unnamed +01:00", i, loc)
			}
		case 1:
			if loc != est {
				t.Fatalf("entry %d in zone %v, want EST", i, loc)
			}
		case 2:
			if loc != cdt {
				t.Fatalf("entry %d in zone %v, want CDT", i, loc)
			}
		}
	}
}

// TestDurableRecoveryKeepsAppendOrder checks that recovery leaves each
// shard's records in sequence order, although the index it scans is
// keyed by time first.
func TestDurableRecoveryKeepsAppendOrder(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable("s", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	es := genEntries(500) // times drawn at random, not in append order
	if err := d.Append(es[:400]...); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(es[400:]...); err != nil {
		t.Fatal(err)
	}
	want := d.Log().Snapshot()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, rs, err := OpenDurable("s", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rs.CheckpointEntries != 400 || rs.WALEntries != 100 {
		t.Fatalf("recovered %d checkpointed and %d WAL entries, want 400 and 100", rs.CheckpointEntries, rs.WALEntries)
	}
	for i, sh := range d.Log().shards {
		for j := 1; j < len(sh.recs); j++ {
			if sh.recs[j-1].seq >= sh.recs[j].seq {
				t.Fatalf("shard %d: record %d has seq %d after %d", i, j, sh.recs[j].seq, sh.recs[j-1].seq)
			}
		}
	}
	if got := d.Log().Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered snapshot differs")
	}
}

// TestCompactLogConcurrentRetention runs appenders against readers of
// every view and against Expire, Rotate and Reset, which rebuild the
// shard dictionaries the readers resolve ids against. Run under -race;
// the assertions are that no read fails, panics or returns an entry no
// append wrote.
func TestCompactLogConcurrentRetention(t *testing.T) {
	l := NewLog("s")
	written := map[string]bool{}
	pool := genEntries(400)
	for i := range pool {
		pool[i].Reason = fmt.Sprintf("reason %d", i%37)
		pool[i].Site = "s"
		written[pool[i].Key()+pool[i].Reason] = true
	}
	known := func(es []Entry) {
		for _, e := range es {
			if !written[e.Key()+e.Reason] || e.Site != "s" {
				t.Errorf("read an entry no append wrote: %v reason %q site %q", e, e.Reason, e.Site)
				return
			}
		}
	}
	done := make(chan struct{})
	var appenders, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		appenders.Add(1)
		go func(w int) {
			defer appenders.Done()
			for i := 0; i < 300; i++ {
				j := (i*7 + w) % len(pool)
				if err := l.Append(pool[j:min(j+1+i%3, len(pool))]...); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	others.Add(2)
	go func() {
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			switch i % 3 {
			case 0:
				l.Expire(t0.Add(time.Duration(i%600)*time.Minute), time.Time{})
			case 1:
				known(l.Rotate(t0.Add(time.Duration(i%300) * time.Minute)))
			default:
				if i%30 == 2 {
					l.Reset()
				}
			}
		}
	}()
	go func() {
		defer others.Done()
		var cur Cursor
		var exp ExportCursor
		for {
			select {
			case <-done:
				return
			default:
			}
			known(l.Snapshot())
			known(l.SnapshotByTime())
			known(l.Exceptions())
			var delta []Entry
			delta, cur, _ = l.Delta(cur)
			known(delta)
			batch, next, err := l.ExportDelta(exp, 50)
			if err != nil {
				exp = ExportCursor{}
			} else {
				known(batch)
				exp = next
			}
			l.Groups()
			l.Summary()
		}
	}()
	appenders.Wait()
	close(done)
	others.Wait()
}

// TestCutoffMatchesTimeBefore checks the nanosecond time bound against
// time.Time.Before, bounds outside the int64-nanosecond range included.
func TestCutoffMatchesTimeBefore(t *testing.T) {
	instants := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	bounds := []time.Time{
		{}, minTime.Add(-time.Nanosecond), minTime, minTime.Add(time.Nanosecond),
		time.Unix(0, 0), maxTime.Add(-time.Nanosecond), maxTime, maxTime.Add(time.Nanosecond),
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for _, b := range bounds {
		c := newCutoff(b)
		for _, ns := range instants {
			if got, want := c.before(ns), time.Unix(0, ns).Before(b); got != want {
				t.Errorf("bound %v, instant %d: before = %v, want %v", b, ns, got, want)
			}
		}
	}
}
