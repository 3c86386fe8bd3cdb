package audit

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// walFile is a WAL segment file whose writes past the segment header
// wait for release (a stalled disk) and then fail with err when err is
// set (a failed disk).
type walFile struct {
	storage.File
	release <-chan struct{}
	err     error
}

func (f walFile) WriteAt(p []byte, off int64) (int, error) {
	if off >= 16 { // past the 16-byte segment header
		<-f.release
		if f.err != nil {
			return 0, f.err
		}
	}
	return f.File.WriteAt(p, off)
}

// walFailpoint returns an OpenFile hook that wraps the store's WAL
// segment files, and only those, in walFile.
func walFailpoint(release <-chan struct{}, err error) storage.OpenFileFunc {
	return func(p string) (storage.File, error) {
		f, oerr := storage.OpenOSFile(p)
		if oerr != nil || filepath.Base(filepath.Dir(p)) != "wal" {
			return f, oerr
		}
		return walFile{File: f, release: release, err: err}, nil
	}
}

// sameEntries compares entries by their JSONL bytes, which depend on a
// time's instant and offset only: a decoded time has an unnamed zone.
func sameEntries(t *testing.T, got, want []Entry) bool {
	t.Helper()
	return bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, want))
}

// TestSinkStreamsEntries: appends reach the WAL as (seq, entry)
// records, the log's site stamped on entries that carry none.
func TestSinkStreamsEntries(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable("ward", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e1 := entry(t0, "a", "referral", "treatment", "nurse", Regular)
	e2 := entry(t0.Add(time.Hour), "b", "psychiatry", "treatment", "nurse", Exception)
	e2.Site = "remote"
	if err := d.Append(e1); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(e2); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	recs := walEntries(t, dir)
	e1.Site = "ward"
	if len(recs) != 2 || recs[0].seq != 1 || recs[1].seq != 2 || !sameEntries(t, []Entry{recs[0].e, recs[1].e}, []Entry{e1, e2}) {
		t.Fatalf("WAL holds %+v", recs)
	}
}

// TestSinkFlushOnClose: Close drains every queued entry into the WAL
// without a Sync, in append order, and detaches the sink: the log
// still takes appends, which no longer reach the WAL.
func TestSinkFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable("ward", dir, DurableOptions{CommitInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	entries := genEntries(57)
	if err := d.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Log().Append(entries[0]); err != nil {
		t.Fatal(err)
	}
	recs := walEntries(t, dir)
	got := make([]Entry, len(recs))
	for i := range recs {
		got[i] = recs[i].e
	}
	if !sameEntries(t, got, d.Log().Snapshot()[:len(entries)]) {
		t.Fatalf("WAL holds %d entries, not the %d appended in order", len(got), len(entries))
	}
}

// TestSinkFlushBarrier: Durable.Sync returns only once the WAL's
// durable LSN covers every entry appended before it.
func TestSinkFlushBarrier(t *testing.T) {
	d, _, err := OpenDurable("ward", t.TempDir(), DurableOptions{CommitInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	entries := genEntries(50)
	for round := 1; round <= 4; round++ {
		if err := d.Append(entries...); err != nil {
			t.Fatal(err)
		}
		d.Sync()
		// A fresh store's LSNs are its sequence numbers.
		if got, want := d.wal.DurableLSN(), uint64(round*len(entries)); got != want {
			t.Fatalf("round %d: durable LSN %d after Sync, want %d", round, got, want)
		}
	}
}

// TestSinkConcurrentAppendOrdered: concurrent appenders leave WAL
// records whose seqs ascend contiguously in LSN order, each holding the
// entry the log holds under that seq — the flush-ordering invariant
// under contention (run with -race).
func TestSinkConcurrentAppendOrdered(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable("ward", dir, DurableOptions{CommitInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 6
	const perWriter = 150
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := entry(t0, fmt.Sprintf("w%d-%d", wi, i), "referral", "treatment", "nurse", Regular)
				var err error
				if i%3 == 0 {
					err = d.Append(e, e)
				} else {
					err = d.Append(e)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recs := walEntries(t, dir)
	want := d.Log().Snapshot()
	if len(recs) != len(want) {
		t.Fatalf("WAL holds %d records, log %d entries", len(recs), len(want))
	}
	got := make([]Entry, len(recs))
	for i, r := range recs {
		if r.seq != uint64(i+1) {
			t.Fatalf("WAL record %d has seq %d, want %d", i, r.seq, i+1)
		}
		got[i] = r.e
	}
	if !sameEntries(t, got, want) {
		t.Fatal("WAL records differ from the log's entries in seq order")
	}
}

// TestSinkFullQueueBlocks: a stalled WAL disk holds Durable.Append back
// once the WAL buffer and the sink queue are full, instead of letting
// either grow; once the disk moves again every entry recovers in
// append order.
func TestSinkFullQueueBlocks(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	d, _, err := OpenDurable("ward", dir, DurableOptions{OpenFile: walFailpoint(release, nil)})
	if err != nil {
		t.Fatal(err)
	}
	// One shared reason makes every WAL record about 1 KiB while the
	// log interns it once.
	reason := strings.Repeat("r", 1024)
	const n = 30000
	var appended atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			e := entry(t0.Add(time.Duration(i)*time.Second), fmt.Sprintf("u%d", i%7), "referral", "treatment", "nurse", Exception)
			e.Reason = reason
			if err := d.Append(e); err != nil {
				t.Error(err)
				return
			}
			appended.Add(1)
		}
	}()
	// Wait until appends stop making progress.
	last := int64(-1)
	for deadline := time.Now().Add(30 * time.Second); ; {
		time.Sleep(50 * time.Millisecond)
		got := appended.Load()
		if got == n {
			t.Fatalf("all %d appends returned past a stalled WAL", n)
		}
		if got == last {
			t.Logf("appends blocked after %d entries", got)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("appends still moving at %d after 30s", got)
		}
		last = got
	}
	close(release)
	<-done
	want := d.Log().Snapshot()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rs, err := OpenDurable("ward", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs.WALEntries != n || !sameEntries(t, d2.Log().Snapshot(), want) {
		t.Fatalf("recovered %d WAL entries, want the %d appended in order", rs.WALEntries, n)
	}
}

// TestSinkFailureDoesNotBlockAppend: a failing WAL disk reports through
// OnErr while in-memory appends continue, and Sync still returns.
func TestSinkFailureDoesNotBlockAppend(t *testing.T) {
	diskErr := errors.New("disk full")
	release := make(chan struct{})
	close(release)
	var failures atomic.Int64
	d, _, err := OpenDurable("ward", t.TempDir(), DurableOptions{
		OpenFile: walFailpoint(release, diskErr),
		OnErr: func(err error) {
			if !errors.Is(err, diskErr) {
				t.Errorf("OnErr got %v, want %v", err, diskErr)
			}
			failures.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := genEntries(20)
	for round := 1; round <= 2; round++ {
		if err := d.Append(entries...); err != nil {
			t.Fatalf("append failed on a WAL error: %v", err)
		}
		d.Sync()
		if got := d.Log().Len(); got != round*len(entries) {
			t.Fatalf("round %d: log holds %d entries, want %d", round, got, round*len(entries))
		}
	}
	if failures.Load() == 0 {
		t.Fatal("WAL failure never reported")
	}
	if err := d.Close(); !errors.Is(err, diskErr) {
		t.Fatalf("Close = %v, want %v", err, diskErr)
	}
}
