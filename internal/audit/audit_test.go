package audit

import (
	"math"
	"strings"
	"testing"
	"time"
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
