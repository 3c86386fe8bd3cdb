package audit

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// heapEntries returns batch entries numbered from first: a few hundred
// users over tens of groups, in time order, so the dictionaries stop
// growing early and only the records would accumulate.
func heapEntries(first, batch int) []Entry {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, batch)
	for i := range out {
		k := first + i
		out[i] = Entry{
			Time:       base.Add(time.Duration(k) * time.Second),
			Op:         Op(k % 2),
			User:       "clinician-" + strconv.Itoa(k%400),
			Data:       "chart-section-" + strconv.Itoa(k%30),
			Purpose:    "purpose-of-use-" + strconv.Itoa(k%6),
			Authorized: "staff-role-" + strconv.Itoa(k%8),
			Site:       "general-hospital",
			Status:     Status(k / 2 % 2),
		}
	}
	return out
}

// liveHeap collects garbage and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapFlat appends n entries through a durable store, letting the
// background checkpointer cut as the WAL grows, and checks that the
// live heap just after the last cut is within a fixed margin of the
// live heap just after the first: cut records leave the shards, so the
// heap does not grow with the log.
func heapFlat(t *testing.T, n int) {
	d, _, err := OpenDurable("s", t.TempDir(), DurableOptions{NoSync: true, OnErr: func(err error) { t.Error(err) }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const batch = 500
	const margin = 4 << 20
	var first, last uint64
	cuts, seen := 0, uint64(0)
	for i := 0; i < n; i += batch {
		if err := d.Append(heapEntries(i, batch)...); err != nil {
			t.Fatal(err)
		}
		if c := d.CheckpointSeq(); c != seen {
			seen = c
			if cuts++; cuts == 1 {
				first = liveHeap()
			} else {
				last = liveHeap()
			}
		}
	}
	if cuts < 3 {
		t.Fatalf("%d background checkpoints over %d entries, want at least 3", cuts, n)
	}
	t.Logf("%d checkpoints; live heap %.1f MiB after the first, %.1f MiB after the last",
		cuts, float64(first)/(1<<20), float64(last)/(1<<20))
	if last > first+margin {
		t.Fatalf("live heap grew from %d to %d bytes across %d checkpoints of %d entries", first, last, cuts, n)
	}
	if got := d.Log().Len(); got != n {
		t.Fatalf("log holds %d entries, want %d", got, n)
	}
}

// TestDurableHeapFlat is heapFlat at a quarter million entries, about
// five background checkpoints.
func TestDurableHeapFlat(t *testing.T) { heapFlat(t, 250_000) }

// TestDurableHeapFlatMillions is heapFlat at three million entries; it
// runs only with AUDIT_HEAP_MILLIONS=1 in the environment.
func TestDurableHeapFlatMillions(t *testing.T) {
	if os.Getenv("AUDIT_HEAP_MILLIONS") != "1" {
		t.Skip("set AUDIT_HEAP_MILLIONS=1 to append three million entries")
	}
	heapFlat(t, 3_000_000)
}

// TestDurableReadersRaceCheckpoints races Snapshot, Delta, ExportDelta
// and Page against each other, appends and background checkpoints that
// move entries from the shards into the index: every entry comes back
// exactly once and in append order, whichever side it was read from.
func TestDurableReadersRaceCheckpoints(t *testing.T) {
	d, _, err := OpenDurable("s", t.TempDir(), DurableOptions{NoSync: true, OnErr: func(err error) { t.Error(err) }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Log()
	const writers, per = 4, 2500
	// An entry's identity is its writer and number.
	id := func(e Entry) string { return e.User + "/" + e.Reason }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := heapEntries(i, 1)[0]
				e.User, e.Reason = fmt.Sprintf("w%d", w), strconv.Itoa(i)
				if err := l.Append(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	run := func(f func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	run(func() {
		d.wake <- struct{}{}
		time.Sleep(200 * time.Microsecond)
	})
	// A snapshot holds no entry twice, and each writer's entries in the
	// order the writer appended them.
	run(func() {
		seen := map[string]bool{}
		next := map[string]int{}
		for _, e := range l.Snapshot() {
			if seen[id(e)] {
				t.Errorf("snapshot holds %s twice", id(e))
				return
			}
			seen[id(e)] = true
			i, _ := strconv.Atoi(e.Reason)
			if i < next[e.User] {
				t.Errorf("snapshot holds %s after %s/%d", id(e), e.User, next[e.User]-1)
				return
			}
			next[e.User] = i + 1
		}
	})
	var deltas, exported []Entry
	var cur Cursor
	run(func() {
		delta, next, resync := l.Delta(cur)
		if resync && cur.valid {
			t.Error("Delta resynced with no structural change")
		}
		cur = next
		deltas = append(deltas, delta...)
	})
	var exp ExportCursor
	rng := rand.New(rand.NewSource(1))
	run(func() {
		batch, next, err := l.ExportDelta(exp, 1+rng.Intn(64))
		if err != nil {
			t.Error(err)
			return
		}
		exp = next
		exported = append(exported, batch...)
	})
	var paged []Entry
	var after uint64
	prng := rand.New(rand.NewSource(2))
	run(func() {
		page, next, err := l.Page(after, 1+prng.Intn(64))
		if err != nil {
			t.Error(err)
			return
		}
		after, paged = next, append(paged, page...)
	})
	wg.Wait()
	close(stop)
	readers.Wait()
	for {
		page, next, err := l.Page(after, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		after, paged = next, append(paged, page...)
	}
	delta, _, _ := l.Delta(cur)
	deltas = append(deltas, delta...)
	for {
		batch, next, err := l.ExportDelta(exp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		exp, exported = next, append(exported, batch...)
	}
	if d.CheckpointSeq() == 0 {
		t.Fatal("no background checkpoint ran")
	}
	want := l.Snapshot()
	if len(want) != writers*per {
		t.Fatalf("snapshot holds %d entries, want %d", len(want), writers*per)
	}
	for view, got := range map[string][]Entry{"Delta": deltas, "ExportDelta": exported, "Page": paged} {
		if len(got) != len(want) {
			t.Fatalf("%s returned %d entries, want %d", view, len(got), len(want))
		}
		for i := range want {
			if id(got[i]) != id(want[i]) {
				t.Fatalf("%s entry %d is %s, snapshot has %s", view, i, id(got[i]), id(want[i]))
			}
		}
	}
}

// indexFile is index.db with a switch that fails its reads.
type indexFile struct {
	storage.File
	fail *atomic.Bool
}

var errIndexRead = errors.New("index read failpoint")

func (f indexFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fail.Load() {
		return 0, errIndexRead
	}
	return f.File.ReadAt(p, off)
}

// TestColdReadErrorKeepsCursors: when reading the checkpointed prefix
// fails, no reader skips past it. Delta returns no entries and the
// cursor it was given, ExportDelta and Page return the error with
// their position unchanged, and Snapshot reports through OnErr; once
// the index reads again, the same cursors return every entry they
// missed.
func TestColdReadErrorKeepsCursors(t *testing.T) {
	var fail atomic.Bool
	var reported atomic.Int32
	open := func(p string) (storage.File, error) {
		f, err := storage.OpenOSFile(p)
		if err != nil || filepath.Base(p) != "index.db" {
			return f, err
		}
		return indexFile{File: f, fail: &fail}, nil
	}
	d, _, err := OpenDurable("s", t.TempDir(), DurableOptions{
		OpenFile: open,
		OnErr: func(err error) {
			if errors.Is(err, errIndexRead) {
				reported.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l := d.Log()
	all := heapEntries(0, 40)
	if err := l.Append(all[:10]...); err != nil {
		t.Fatal(err)
	}
	_, dc, _ := l.Delta(Cursor{})
	ec := ExportCursor{}
	if _, ec, err = l.ExportDelta(ec, 10); err != nil || ec.Seq() != 10 {
		t.Fatalf("ExportDelta: seq %d, %v", ec.Seq(), err)
	}
	if err := l.Append(all[10:30]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(all[30:]...); err != nil {
		t.Fatal(err)
	}

	fail.Store(true)
	if delta, next, resync := l.Delta(dc); len(delta) != 0 || next != dc || resync {
		t.Fatalf("failed Delta returned %d entries, cursor %+v (was %+v), resync %v", len(delta), next, dc, resync)
	}
	if got, next, err := l.ExportDelta(ec, 0); !errors.Is(err, errIndexRead) || len(got) != 0 || next.Seq() != ec.Seq() {
		t.Fatalf("failed ExportDelta: %d entries, seq %d, %v", len(got), next.Seq(), err)
	}
	if got, next, err := l.Page(5, 100); !errors.Is(err, errIndexRead) || len(got) != 0 || next != 5 {
		t.Fatalf("failed Page: %d entries, next %d, %v", len(got), next, err)
	}
	if got := l.Snapshot(); len(got) != 10 {
		t.Fatalf("failed Snapshot served %d entries, want the 10-entry tail", len(got))
	}
	if n := reported.Load(); n != 2 {
		t.Fatalf("OnErr saw %d index read errors, want 2 (Delta, Snapshot)", n)
	}

	fail.Store(false)
	delta, _, resync := l.Delta(dc)
	if resync || !sameEntries(t, delta, all[10:]) {
		t.Fatalf("Delta after the failure: %d entries, resync %v", len(delta), resync)
	}
	got, _, err := l.ExportDelta(ec, 0)
	if err != nil || !sameEntries(t, got, all[10:]) {
		t.Fatalf("ExportDelta after the failure: %d entries, %v", len(got), err)
	}
	page, next, err := l.Page(5, 100)
	if err != nil || next != 40 || !sameEntries(t, page, all[5:]) {
		t.Fatalf("Page after the failure: %d entries, next %d, %v", len(page), next, err)
	}
}
