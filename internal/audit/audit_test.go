package audit

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/vocab"
)

func entry(t time.Time, user, data, purpose, role string, st Status) Entry {
	return Entry{Time: t, Op: Allow, User: user, Data: data, Purpose: purpose, Authorized: role, Status: st}
}

var t0 = time.Date(2007, 3, 1, 8, 0, 0, 0, time.UTC)

func TestEntryValidate(t *testing.T) {
	good := entry(t0, "john", "referral", "treatment", "nurse", Regular)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	edge := good
	edge.Time = time.Unix(0, math.MaxInt64).In(time.FixedZone("", MaxZoneOffset))
	if err := edge.Validate(); err != nil {
		t.Fatalf("latest representable instant at the widest zone rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(Entry) Entry
	}{
		{"zero time", func(e Entry) Entry { e.Time = time.Time{}; return e }},
		{"no user", func(e Entry) Entry { e.User = "  "; return e }},
		{"no data", func(e Entry) Entry { e.Data = ""; return e }},
		{"no purpose", func(e Entry) Entry { e.Purpose = ""; return e }},
		{"no role", func(e Entry) Entry { e.Authorized = ""; return e }},
		{"bad op", func(e Entry) Entry { e.Op = 7; return e }},
		{"bad status", func(e Entry) Entry { e.Status = -1; return e }},
		{"after 2262", func(e Entry) Entry { e.Time = time.Date(2500, 1, 1, 0, 0, 0, 0, time.UTC); return e }},
		{"before 1677", func(e Entry) Entry { e.Time = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC); return e }},
		{"zone +25h", func(e Entry) Entry { e.Time = t0.In(time.FixedZone("", 25*3600)); return e }},
		{"zone -24h", func(e Entry) Entry { e.Time = t0.In(time.FixedZone("", -24*3600)); return e }},
	}
	for _, c := range cases {
		bad := c.mod(good)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEntryRuleProjection(t *testing.T) {
	e := entry(t0, "john", "Referral", "Treatment", "Nurse", Regular)
	r := e.Rule()
	if r.Len() != 3 {
		t.Fatalf("rule has %d terms", r.Len())
	}
	if r.Key() != "authorized=nurse&data=referral&purpose=treatment" {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestOpStatusStrings(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Error("op strings wrong")
	}
	if Regular.String() != "regular" || Exception.String() != "exception" {
		t.Error("status strings wrong")
	}
}

func TestLogAppendAndViews(t *testing.T) {
	l := NewLog("site-a")
	e1 := entry(t0, "a", "referral", "treatment", "nurse", Regular)
	e2 := entry(t0.Add(time.Hour), "b", "psychiatry", "treatment", "nurse", Exception)
	if err := l.Append(e1, e2); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	snap := l.Snapshot()
	if snap[0].Site != "site-a" || snap[1].Site != "site-a" {
		t.Error("site not stamped")
	}
	if got := l.Exceptions(); len(got) != 1 || got[0].User != "b" {
		t.Errorf("Exceptions = %v", got)
	}
	if got := l.Since(t0.Add(30 * time.Minute)); len(got) != 1 {
		t.Errorf("Since = %v", got)
	}
	// Appending an invalid entry must not mutate the log.
	if err := l.Append(Entry{}); err == nil {
		t.Fatal("invalid entry accepted")
	}
	if l.Len() != 2 {
		t.Error("failed append mutated log")
	}
	l.Reset()
	if l.Len() != 0 {
		t.Error("reset failed")
	}
}

func TestLogPreservesExplicitSite(t *testing.T) {
	l := NewLog("site-a")
	e := entry(t0, "a", "d", "p", "r", Regular)
	e.Site = "site-b"
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	if got := l.Snapshot()[0].Site; got != "site-b" {
		t.Errorf("site overwritten: %q", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	l := NewLog("")
	if err := l.Append(entry(t0, "a", "d", "p", "r", Regular)); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	snap[0].User = "mutated"
	if l.Snapshot()[0].User != "a" {
		t.Error("snapshot shares storage with log")
	}
}

func TestToPolicyDeduplicates(t *testing.T) {
	entries := []Entry{
		entry(t0, "a", "referral", "registration", "nurse", Exception),
		entry(t0.Add(time.Hour), "b", "Referral", "Registration", "Nurse", Exception),
		entry(t0.Add(2*time.Hour), "c", "address", "billing", "clerk", Regular),
	}
	p := ToPolicy("AL", entries)
	if p.Len() != 2 {
		t.Errorf("ToPolicy kept %d rules, want 2", p.Len())
	}
}

func TestSummarize(t *testing.T) {
	entries := []Entry{
		entry(t0, "a", "d", "p", "r", Regular),
		entry(t0.Add(time.Hour), "b", "d", "p", "r", Exception),
		{Time: t0.Add(2 * time.Hour), Op: Deny, User: "a", Data: "d", Purpose: "p", Authorized: "r", Status: Regular},
	}
	s := Summarize(entries)
	if s.Total != 3 || s.Allowed != 2 || s.Denied != 1 || s.Exceptions != 1 || s.Regular != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Users != 2 {
		t.Errorf("Users = %d", s.Users)
	}
	if !s.First.Equal(t0) || !s.Last.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("First/Last = %v/%v", s.First, s.Last)
	}
	if z := Summarize(nil); z.Total != 0 || !z.First.IsZero() {
		t.Errorf("empty Summarize = %+v", z)
	}
}

func TestSortByTimeStable(t *testing.T) {
	entries := []Entry{
		entry(t0.Add(time.Hour), "later", "d", "p", "r", Regular),
		entry(t0, "first-same", "d", "p", "r", Regular),
		entry(t0, "second-same", "d", "p", "r", Regular),
	}
	SortByTime(entries)
	if entries[0].User != "first-same" || entries[1].User != "second-same" || entries[2].User != "later" {
		t.Errorf("bad order: %v", entries)
	}
}

func TestEntryString(t *testing.T) {
	e := entry(t0, "john", "referral", "treatment", "nurse", Exception)
	s := e.String()
	for _, want := range []string{"john", "referral", "treatment", "nurse", "exception", "allow"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestUnionDays checks the in-place day-set merge against a sort of
// the concatenation: random ascending sets, subsets, disjoint sets and
// a with spare capacity, which the merge may write into but b must
// come through untouched.
func TestUnionDays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := func(n, span int) []int32 {
		var out []int32
		for i := 0; i < n; i++ {
			out = append(out, int32(rng.Intn(span)))
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := set(rng.Intn(12), 20), set(rng.Intn(12), 20)
		if trial%3 == 0 {
			b = slices.Clone(a[:rng.Intn(len(a)+1)])
		}
		if trial%2 == 0 {
			a = append(make([]int32, 0, len(a)+rng.Intn(8)), a...)
		}
		want := append(slices.Clone(a), b...)
		slices.Sort(want)
		want = slices.Compact(want)
		aWas, bWas := slices.Clone(a), slices.Clone(b)
		if got := unionDays(a, b); !slices.Equal(got, want) || !slices.Equal(b, bWas) {
			t.Fatalf("unionDays(%v, %v) = %v (b now %v), want %v", aWas, bWas, got, b, want)
		}
	}
}

// SnapshotByTime returns a copy of the entries in chronological
// order, same-instant entries in append order — byte-identical to
// SortByTime(Snapshot()) but sorted per shard (concurrently when
// GOMAXPROCS allows) and k-way merged, a durable log's checkpointed
// prefix as one more run.
func (l *Log) SnapshotByTime() []Entry { return mergeEntries(l.allRuns(), byTime) }

// CheckpointSeq returns the sequence number of the last checkpoint
// cut (entries at or below it live in the index).
func (d *Durable) CheckpointSeq() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ckptSeq
}

// AddSource registers an additional source log.
func (f *Federation) AddSource(l *Log) { f.sources = append(f.sources, l) }

// Key returns a canonical identity for deduplication across federated
// logs: same instant, same actor, same object, same outcome.
func (e Entry) Key() string {
	u, d := vocab.Norm(e.User), vocab.Norm(e.Data)
	p, a := vocab.Norm(e.Purpose), vocab.Norm(e.Authorized)
	var b strings.Builder
	b.Grow(28 + len(u) + len(d) + len(p) + len(a))
	b.WriteString(strconv.FormatInt(e.Time.UnixNano(), 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(e.Op)))
	b.WriteByte('|')
	b.WriteString(u)
	b.WriteByte('|')
	b.WriteString(d)
	b.WriteByte('|')
	b.WriteString(p)
	b.WriteByte('|')
	b.WriteString(a)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(e.Status)))
	return b.String()
}

// Filtered returns a copy of the entries satisfying keep, in append
// order.
func (l *Log) Filtered(keep func(Entry) bool) []Entry {
	if es := l.entries(keep); len(es) > 0 {
		return es
	}
	return nil
}

// Since returns entries with Time >= t, preserving order.
func (l *Log) Since(t time.Time) []Entry {
	return l.Filtered(func(e Entry) bool { return !e.Time.Before(t) })
}

// Exceptions returns the exception-based (break-the-glass) entries.
func (l *Log) Exceptions() []Entry {
	return l.Filtered(func(e Entry) bool { return e.Status == Exception })
}

// SortByTime sorts entries chronologically (stable, so same-instant
// entries keep their relative order): the oracle for the log's merged
// time-ordered reads.
func SortByTime(entries []Entry) {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
}
