package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// genEntries builds n deterministic entries spread over users, data
// categories, purposes and instants so they scatter across shards.
func genEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(7))
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	data := []string{"referral", "psychiatry", "lab results", "billing"}
	purposes := []string{"treatment", "research", "billing"}
	roles := []string{"nurse", "physician", "clerk"}
	out := make([]Entry, n)
	for i := range out {
		st := Regular
		op := Allow
		switch rng.Intn(4) {
		case 0:
			st = Exception
		case 1:
			op = Deny
		}
		out[i] = Entry{
			Time:       t0.Add(time.Duration(rng.Intn(600)) * time.Minute),
			Op:         op,
			User:       users[rng.Intn(len(users))],
			Data:       data[rng.Intn(len(data))],
			Purpose:    purposes[rng.Intn(len(purposes))],
			Authorized: roles[rng.Intn(len(roles))],
			Status:     st,
		}
	}
	return out
}

// TestShardedSnapshotMatchesSequentialLog is the determinism check of
// the sharded store: for the same sequential input, a many-shard log
// and a single-shard log produce byte-identical Snapshot, Exceptions,
// SnapshotByTime, Groups and Summary views.
func TestShardedSnapshotMatchesSequentialLog(t *testing.T) {
	entries := genEntries(500)
	sharded := NewLogShards("s", 16)
	sequential := NewLogShards("s", 1)
	for _, e := range entries {
		if err := sharded.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := sequential.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sharded.Snapshot(), sequential.Snapshot()) {
		t.Fatal("sharded Snapshot diverges from sequential log")
	}
	if !reflect.DeepEqual(sharded.Exceptions(), sequential.Exceptions()) {
		t.Fatal("sharded Exceptions diverges from sequential log")
	}
	if !reflect.DeepEqual(sharded.SnapshotByTime(), sequential.SnapshotByTime()) {
		t.Fatal("sharded SnapshotByTime diverges from sequential log")
	}
	if !reflect.DeepEqual(sharded.Groups(), sequential.Groups()) {
		t.Fatal("sharded Groups diverges from sequential log")
	}
	if sharded.Summary() != sequential.Summary() {
		t.Fatal("sharded Summary diverges from sequential log")
	}
}

// TestSnapshotByTimeMatchesSortByTime pins the SnapshotByTime
// contract federation depends on: identical to SortByTime over a
// sequence-ordered Snapshot, including same-instant tie-breaks.
func TestSnapshotByTimeMatchesSortByTime(t *testing.T) {
	l := NewLog("s")
	entries := genEntries(800)
	// Duplicate some instants exactly to exercise the tie-break.
	for i := range entries {
		entries[i].Time = t0.Add(time.Duration(i%50) * time.Minute)
	}
	if err := l.Append(entries...); err != nil {
		t.Fatal(err)
	}
	want := l.Snapshot()
	SortByTime(want)
	if got := l.SnapshotByTime(); !reflect.DeepEqual(got, want) {
		t.Fatal("SnapshotByTime != SortByTime(Snapshot())")
	}
}

// TestIndexMatchesRescan checks the index-consistency invariant: the
// merged Groups/Summary views equal a from-scratch recomputation over
// the snapshot, including after retention trims part of the log.
func TestIndexMatchesRescan(t *testing.T) {
	l := NewLog("s")
	if err := l.Append(genEntries(600)...); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		snap := l.Snapshot()
		if got, want := l.Summary(), Summarize(snap); got != want {
			t.Fatalf("%s: Summary() = %+v, rescan = %+v", stage, got, want)
		}
		want := groupsByRescan(l)
		if got := l.Groups(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Groups() diverges from rescan:\n got %+v\nwant %+v", stage, got, want)
		}
	}
	check("after append")
	l.Expire(t0.Add(300*time.Minute), time.Time{})
	check("after expire")
	l.Rotate(t0.Add(450 * time.Minute))
	check("after rotate")
	l.Reset()
	check("after reset")
}

// groupsByRescan recomputes the Group view naively from the log's
// rows, folding each into a fresh single-shard log under its original
// sequence number (Group.FirstSeq is part of the view).
func groupsByRescan(l *Log) []Group {
	fresh := NewLogShards("", 1)
	for _, rn := range l.runs(nil) {
		for i := range rn.recs {
			e := rn.d.entry(&rn.recs[i])
			fresh.shards[0].add(rn.recs[i].seq, &e)
		}
	}
	return fresh.Groups()
}

// TestDeltaCursor drives the O(delta) read path: successive Deltas
// partition the appended entries in order, and structural changes
// force a resync.
func TestDeltaCursor(t *testing.T) {
	l := NewLog("s")
	entries := genEntries(300)
	var cur Cursor
	var seen []Entry

	delta, cur, resync := l.Delta(cur)
	if !resync || len(delta) != 0 {
		t.Fatalf("zero cursor: resync=%v len=%d", resync, len(delta))
	}
	for i := 0; i < len(entries); i += 100 {
		if err := l.Append(entries[i : i+100]...); err != nil {
			t.Fatal(err)
		}
		delta, cur, resync = l.Delta(cur)
		if resync {
			t.Fatal("unexpected resync on pure appends")
		}
		if len(delta) != 100 {
			t.Fatalf("delta len = %d, want 100", len(delta))
		}
		seen = append(seen, delta...)
	}
	if !reflect.DeepEqual(seen, l.Snapshot()) {
		t.Fatal("concatenated deltas != snapshot")
	}

	// A structural change invalidates the cursor.
	l.Expire(t0.Add(300*time.Minute), time.Time{})
	delta, cur, resync = l.Delta(cur)
	if !resync {
		t.Fatal("expected resync after Expire")
	}
	if !reflect.DeepEqual(delta, l.Snapshot()) {
		t.Fatal("resync delta should restart from the full log")
	}
	if _, _, again := l.Delta(cur); again {
		t.Fatal("cursor should be fresh after resync")
	}
}

// TestConcurrentAppendSnapshotExceptions hammers the striped log from
// appenders and readers simultaneously; run under -race this is the
// shard-concurrency test the pipeline requires. Readers must always
// observe a sequence-ordered prefix-consistent view.
func TestConcurrentAppendSnapshotExceptions(t *testing.T) {
	l := NewLog("s")
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := Entry{
					Time:       t0.Add(time.Duration(i) * time.Second),
					Op:         Allow,
					User:       fmt.Sprintf("user%d", w),
					Data:       "referral",
					Purpose:    "treatment",
					Authorized: "nurse",
					Status:     Status(i % 2),
				}
				if err := l.Append(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := l.Snapshot()
				for i := 1; i < len(snap); i++ {
					_ = snap[i]
				}
				_ = l.Exceptions()
				_ = l.Groups()
				_ = l.Summary()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	if got := l.Len(); got != writers*perWriter {
		t.Fatalf("len = %d, want %d", got, writers*perWriter)
	}
	sum := l.Summary()
	if sum.Total != writers*perWriter || sum.Users != writers {
		t.Fatalf("summary = %+v", sum)
	}
	if got := len(l.Exceptions()); got != writers*perWriter/2 {
		t.Fatalf("exceptions = %d, want %d", got, writers*perWriter/2)
	}
}

// TestAppendJSONLineMatchesStdlib pins the flusher's reflection-free
// encoder to the stdlib json.Encoder byte for byte, across the plain
// fast path, the omitempty fields, and the escaping fallback.
func TestAppendJSONLineMatchesStdlib(t *testing.T) {
	cases := genEntries(20)
	cases = append(cases,
		Entry{Time: t0, Op: Allow, User: `o"hara`, Data: "a\\b", Purpose: "p", Authorized: "r", Status: Regular},
		Entry{Time: t0, Op: Deny, User: "x<y>&z", Data: "d", Purpose: "p", Authorized: "r", Status: Exception},
		Entry{Time: t0, Op: Allow, User: "søster", Data: "journal\tnotat", Purpose: "p", Authorized: "r", Status: Regular},
		Entry{Time: t0.Add(123456789 * time.Nanosecond), Op: Allow, User: "u", Data: "d", Purpose: "p",
			Authorized: "r", Status: Regular, Site: "oslo", Reason: "on-call cover"},
		Entry{Time: t0.In(time.FixedZone("", 5*3600+1800)), Op: Allow, User: "u", Data: "d", Purpose: "p", Authorized: "r"},
		Entry{Time: t0.In(time.FixedZone("", -MaxZoneOffset)), Op: Deny, User: "u", Data: "d", Purpose: "p", Authorized: "r"},
	)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	var got []byte
	for i := range cases {
		if err := enc.Encode(cases[i]); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = appendJSONLine(got, &cases[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoder output diverges:\n got %q\nwant %q", got, want.Bytes())
	}
	// Times RFC 3339 cannot express fail in both encoders.
	for _, tm := range []time.Time{
		t0.In(time.FixedZone("", 24*3600)),
		t0.In(time.FixedZone("", -25*3600)),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		e := Entry{Time: tm, User: "u", Data: "d", Purpose: "p", Authorized: "r"}
		if _, err := appendJSONLine(nil, &e); err == nil || enc.Encode(e) == nil {
			t.Errorf("time %v: appendJSONLine err %v; both encoders must refuse it", tm, err)
		}
	}
}

// TestEvidenceFoldUsesEntryClock pins the evidence features the index
// folds: off-hours on the entry's own zone clock, active days on UTC
// calendar days, user counts per raw user, and FirstSeq as the
// group's earliest row.
func TestEvidenceFoldUsesEntryClock(t *testing.T) {
	plus2 := time.FixedZone("", 2*3600)
	minus5 := time.FixedZone("", -5*3600)
	evening := time.Date(2007, 3, 1, 17, 0, 0, 0, time.UTC).In(plus2) // 19:00 local
	late := time.Date(2007, 3, 2, 4, 30, 0, 0, time.UTC).In(minus5)   // 23:30 local, 1 March
	if !OffHours(evening) || OffHours(evening.UTC()) {
		t.Fatalf("OffHours(%v) should follow the entry's zone", evening)
	}
	if UTCDay(late) != UTCDay(time.Date(2007, 3, 2, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("UTCDay(%v) should count the UTC calendar day", late)
	}
	if d := UTCDay(time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC)); d != -1 {
		t.Fatalf("UTCDay before the epoch = %d, want -1", d)
	}
	row := func(at time.Time, user string, st Status) Entry {
		return Entry{Time: at, Op: Allow, User: user, Data: "referral", Purpose: "registration",
			Authorized: "nurse", Status: st}
	}
	l := NewLog("s")
	if err := l.Append(
		row(evening, "regular-user", Regular),
		row(evening, "Mark", Exception),
		row(late, "mark", Exception),
		row(evening.Add(-8*time.Hour), "Mark", Exception),
	); err != nil {
		t.Fatal(err)
	}
	gs := l.Groups()
	if len(gs) != 1 {
		t.Fatalf("%d groups, want 1", len(gs))
	}
	g := gs[0]
	want := map[string]int{"Mark": 2, "mark": 1}
	if g.FirstSeq != 1 || g.Practice != 3 || g.OffHours != 2 || !reflect.DeepEqual(g.Users, want) ||
		!reflect.DeepEqual(g.Days, []int32{UTCDay(evening), UTCDay(late)}) {
		t.Fatalf("group %+v", g)
	}
}
