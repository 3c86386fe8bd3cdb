package audit

import (
	"reflect"
	"sync"
	"testing"
)

// TestExportDeltaSequential: chunked export must reproduce Snapshot
// exactly — the contiguous range property over a quiet log.
func TestExportDeltaSequential(t *testing.T) {
	l := NewLog("s")
	entries := genEntries(500)
	if err := l.Append(entries...); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	var c ExportCursor
	for {
		batch, next, err := l.ExportDelta(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		if next.Seq() != c.Seq()+uint64(len(batch)) {
			t.Fatalf("cursor advanced %d..%d for %d entries", c.Seq(), next.Seq(), len(batch))
		}
		got = append(got, batch...)
		c = next
	}
	if c.Seq() != l.Seq() {
		t.Fatalf("cursor stopped at %d, log at %d", c.Seq(), l.Seq())
	}
	if !reflect.DeepEqual(got, l.Snapshot()) {
		t.Fatal("chunked export differs from Snapshot")
	}
	// Unbounded export from scratch agrees too.
	all, next, err := l.ExportDelta(ExportCursor{}, 0)
	if err != nil || next.Seq() != l.Seq() || !reflect.DeepEqual(all, got) {
		t.Fatalf("unbounded export differs (err %v)", err)
	}
}

// TestExportDeltaConcurrent: a tailer exporting while several
// goroutines append must still observe every sequence number exactly
// once, in order — shard.put's ordered insert under real interleaving.
func TestExportDeltaConcurrent(t *testing.T) {
	l := NewLog("s")
	const writers, perWriter = 8, 500
	entries := genEntries(writers * perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				if err := l.Append(entries[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var got []Entry
	var c ExportCursor
	for len(got) < writers*perWriter {
		batch, next, err := l.ExportDelta(c, 37)
		if err != nil {
			t.Fatal(err)
		}
		if next.Seq() != c.Seq()+uint64(len(batch)) {
			t.Fatalf("range (%d, %d] delivered %d entries", c.Seq(), next.Seq(), len(batch))
		}
		got = append(got, batch...)
		c = next
	}
	wg.Wait()
	if !reflect.DeepEqual(got, l.Snapshot()) {
		t.Fatal("tailed export differs from final Snapshot")
	}
}

// TestExportDeltaInvalidated: a structural change (Reset) must fail
// outstanding cursors instead of silently skipping entries.
func TestExportDeltaInvalidated(t *testing.T) {
	l := NewLog("s")
	if err := l.Append(genEntries(100)...); err != nil {
		t.Fatal(err)
	}
	_, c, err := l.ExportDelta(ExportCursor{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	l.Reset()
	if err := l.Append(genEntries(10)...); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ExportDelta(c, 10); err != ErrExportInvalidated {
		t.Fatalf("err = %v, want ErrExportInvalidated", err)
	}
	// A fresh cursor works against the reset log.
	batch, next, err := l.ExportDelta(ExportCursor{}, 0)
	if err != nil || len(batch) != 10 || next.Seq() != l.Seq() {
		t.Fatalf("fresh cursor after reset: %d entries, err %v", len(batch), err)
	}
}

// TestMergeGroupsMatchesSingleLog: merging k logs' incremental indexes
// must equal the single-log index over the union of their entries.
func TestMergeGroupsMatchesSingleLog(t *testing.T) {
	entries := genEntries(1200)
	union := NewLog("u")
	parts := []*Log{NewLog("a"), NewLog("b"), NewLog("c")}
	for i, e := range entries {
		if err := parts[i%len(parts)].Append(e); err != nil {
			t.Fatal(err)
		}
		if err := union.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got := MergeGroups(parts...)
	want := union.Groups()
	if len(got) != len(want) {
		t.Fatalf("%d merged groups, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Total != w.Total || g.Practice != w.Practice ||
			g.PracticeUsers != w.PracticeUsers || !g.First.Equal(w.First) || !g.Last.Equal(w.Last) {
			t.Fatalf("group %d differs:\n merged %+v\n union  %+v", i, g, w)
		}
	}
}
