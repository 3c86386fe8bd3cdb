package audit

import (
	"math/rand"
	"testing"
	"time"
)

func mkLog(t *testing.T, site string, entries ...Entry) *Log {
	t.Helper()
	l := NewLog(site)
	if err := l.Append(entries...); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestConsolidateMergesChronologically(t *testing.T) {
	a := mkLog(t, "a",
		entry(t0.Add(2*time.Hour), "u1", "d", "p", "r", Regular),
		entry(t0, "u2", "d", "p", "r", Regular),
	)
	b := mkLog(t, "b",
		entry(t0.Add(time.Hour), "u3", "d", "p", "r", Regular),
	)
	res := NewFederation(a, b).Consolidate()
	if len(res.Entries) != 3 {
		t.Fatalf("got %d entries", len(res.Entries))
	}
	for i := 1; i < len(res.Entries); i++ {
		if res.Entries[i].Time.Before(res.Entries[i-1].Time) {
			t.Fatalf("not chronological: %v", res.Entries)
		}
	}
	if res.Entries[0].User != "u2" || res.Entries[1].User != "u3" || res.Entries[2].User != "u1" {
		t.Errorf("order: %v", res.Entries)
	}
}

func TestConsolidateDeduplicatesReplicas(t *testing.T) {
	// The same event replicated to two site logs counts once.
	e := entry(t0, "u", "referral", "treatment", "nurse", Regular)
	a := mkLog(t, "a", e)
	eb := e
	eb.Site = "a" // replica carries the original site
	b := NewLog("b")
	if err := b.Append(eb); err != nil {
		t.Fatal(err)
	}
	res := NewFederation(a, b).Consolidate()
	if len(res.Entries) != 1 || res.Duplicates != 1 {
		t.Errorf("entries=%d duplicates=%d", len(res.Entries), res.Duplicates)
	}
}

func TestConsolidateReportsConflicts(t *testing.T) {
	// Same instant, actor and object but disagreeing outcome.
	ea := entry(t0, "u", "referral", "treatment", "nurse", Regular)
	eb := ea
	eb.Op = Deny
	res := NewFederation(mkLog(t, "a", ea), mkLog(t, "b", eb)).Consolidate()
	if len(res.Conflicts) != 1 {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	if len(res.Entries) != 2 {
		t.Errorf("conflicting entries must both be kept: %v", res.Entries)
	}
	if s := res.Conflicts[0].String(); s == "" {
		t.Error("empty conflict string")
	}
}

func TestConsolidateOrderInsensitive(t *testing.T) {
	// Property: the consolidated view does not depend on how entries
	// were distributed across sites or ordered within a site.
	rng := rand.New(rand.NewSource(42))
	var all []Entry
	for i := 0; i < 40; i++ {
		all = append(all, entry(t0.Add(time.Duration(i)*time.Minute), "u", "d", "p", "r", Regular))
	}
	split := func(nSites int, shuffle bool) []Entry {
		logs := make([]*Log, nSites)
		for i := range logs {
			logs[i] = NewLog("s")
		}
		es := append([]Entry(nil), all...)
		if shuffle {
			rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		}
		for i, e := range es {
			if err := logs[i%nSites].Append(e); err != nil {
				t.Fatal(err)
			}
		}
		return NewFederation(logs...).Consolidate().Entries
	}
	ref := split(1, false)
	for _, n := range []int{2, 3, 5} {
		got := split(n, true)
		if len(got) != len(ref) {
			t.Fatalf("nSites=%d: %d entries, want %d", n, len(got), len(ref))
		}
		for i := range ref {
			if !got[i].Time.Equal(ref[i].Time) {
				t.Fatalf("nSites=%d: order diverges at %d", n, i)
			}
		}
	}
}

func TestConsolidateLogAndHelpers(t *testing.T) {
	a := mkLog(t, "a", entry(t0, "u1", "d", "p", "r", Regular))
	b := mkLog(t, "b", entry(t0.Add(time.Minute), "u2", "d", "p", "r", Exception))
	fed := NewFederation(a)
	fed.AddSource(b)
	if fed.Sources() != 2 {
		t.Fatalf("Sources = %d", fed.Sources())
	}
	l, res := fed.ConsolidateLog("hq")
	if l.Site() != "hq" || l.Len() != 2 || len(res.Entries) != 2 {
		t.Errorf("consolidated log: %v %v", l, res)
	}
}

func TestConsolidateEmptyFederation(t *testing.T) {
	res := NewFederation().Consolidate()
	if len(res.Entries) != 0 || res.Duplicates != 0 || len(res.Conflicts) != 0 {
		t.Errorf("empty federation: %+v", res)
	}
}
