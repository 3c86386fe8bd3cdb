package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWALAppendCommitReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{CommitInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	var last uint64
	for i := 0; i < n; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d for record %d", lsn, i)
		}
		last = lsn
	}
	if err := w.Commit(last); err != nil {
		t.Fatal(err)
	}
	if w.DurableLSN() < last {
		t.Fatalf("durable %d < %d", w.DurableLSN(), last)
	}
	if w.Syncs() >= n {
		t.Fatalf("group commit did no batching: %d fsyncs for %d records", w.Syncs(), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []string
	st, err := Replay(dir, nil, func(lsn uint64, p []byte) error {
		if lsn != uint64(len(got)+1) {
			return fmt.Errorf("lsn %d out of order", lsn)
		}
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n || st.TornTail {
		t.Fatalf("replay stats %+v", st)
	}
	for i, s := range got {
		if s != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d = %q", i, s)
		}
	}
}

func TestWALSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 4096, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'r'}, 256)
	var last uint64
	for i := 0; i < 200; i++ {
		last, err = w.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		// Commit each record so batches stay small and rolling happens
		// at many boundaries.
		if err := w.Commit(last); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	// Truncate everything strictly below the midpoint LSN.
	mid := last / 2
	if err := w.TruncateBefore(mid); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listSegments(dir)
	if len(segsAfter) >= len(segs) {
		t.Fatalf("truncation removed nothing: %d -> %d", len(segs), len(segsAfter))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay must yield a contiguous LSN suffix that covers mid..last.
	var first, count uint64
	_, err = Replay(dir, nil, func(lsn uint64, p []byte) error {
		if first == 0 {
			first = lsn
		}
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == 0 || first > mid {
		t.Fatalf("replay starts at %d, want <= %d", first, mid)
	}
	if first+count-1 != last {
		t.Fatalf("replay ends at %d, want %d", first+count-1, last)
	}
}

// TestWALRollFreesEverySegment checks Roll: after it, TruncateBefore
// past the last LSN deletes every record written so far and replay
// reads none; a roll of a segment with no records makes no file; and
// records appended after a roll replay from the new segment in order.
func TestWALRollFreesEverySegment(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	replay := func() ReplayStats {
		t.Helper()
		var want uint64
		st, err := Replay(dir, nil, func(lsn uint64, p []byte) error {
			if want != 0 && lsn != want {
				t.Fatalf("replay jumped from LSN %d to %d", want-1, lsn)
			}
			if string(p) != fmt.Sprint(lsn) {
				t.Fatalf("record %d holds %q", lsn, p)
			}
			want = lsn + 1
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	appendN := func(n int) uint64 {
		t.Helper()
		var lsn uint64
		for i := 0; i < n; i++ {
			next := w.LastLSN() + 1
			if lsn, err = w.Append([]byte(fmt.Sprint(next))); err != nil {
				t.Fatal(err)
			}
		}
		return lsn
	}
	for round := 0; round < 3; round++ {
		last := appendN(50)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Roll(); err != nil {
			t.Fatal(err)
		}
		if err := w.TruncateBefore(w.LastLSN() + 1); err != nil {
			t.Fatal(err)
		}
		if st := replay(); st.Records != 0 || st.Segments != 1 {
			t.Fatalf("round %d: %d records in %d segments after roll and truncate, want 0 in 1", round, st.Records, st.Segments)
		}
		segs, _ := listSegments(dir)
		if err := w.Roll(); err != nil {
			t.Fatal(err)
		}
		if again, _ := listSegments(dir); len(again) != 1 || again[0] != segs[0] {
			t.Fatalf("round %d: a roll of an empty segment left %v, want %v", round, again, segs)
		}
		if segs[0].first != last+1 {
			t.Fatalf("round %d: the new segment starts at LSN %d, want %d", round, segs[0].first, last+1)
		}
	}
	// Unflushed records at a roll land in the new segment, in order.
	appendN(20)
	if err := w.Roll(); err != nil {
		t.Fatal(err)
	}
	last := appendN(20)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := replay(); st.Records != 40 || st.LastLSN != last {
		t.Fatalf("replay read %d records ending at %d, want 40 ending at %d", st.Records, st.LastLSN, last)
	}
}

func TestWALReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(dir, WALOptions{})
	for i := 0; i < 10; i++ {
		w.Append([]byte("a"))
	}
	w.Sync()
	w.Close()
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := w2.Append([]byte("b"))
	if lsn != 11 {
		t.Fatalf("lsn after reopen = %d, want 11", lsn)
	}
	w2.Sync()
	w2.Close()
	var n int
	st, err := Replay(dir, nil, func(lsn uint64, p []byte) error { n++; return nil })
	if err != nil || n != 11 || st.LastLSN != 11 {
		t.Fatalf("replay n=%d st=%+v err=%v", n, st, err)
	}
}

// TestWALTornTail appends, then chops the last segment at arbitrary
// byte offsets: replay must recover the longest valid prefix and flag
// the torn tail, and reopen must truncate and continue cleanly.
func TestWALTornTail(t *testing.T) {
	// Each record frames to 14 bytes; chops below that tear exactly the
	// final record.
	for _, chop := range []int64{1, 3, 7, 9, 13} {
		dir := t.TempDir()
		w, _ := OpenWAL(dir, WALOptions{})
		for i := 0; i < 50; i++ {
			w.Append([]byte(fmt.Sprintf("rec-%02d", i)))
		}
		w.Sync()
		w.Close()
		segs, _ := listSegments(dir)
		segPath := segs[len(segs)-1].path
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segPath, fi.Size()-chop); err != nil {
			t.Fatal(err)
		}
		var n int
		st, err := Replay(dir, nil, func(lsn uint64, p []byte) error { n++; return nil })
		if err != nil {
			t.Fatalf("chop %d: replay error %v", chop, err)
		}
		if !st.TornTail {
			t.Fatalf("chop %d: torn tail not detected", chop)
		}
		if n != 49 {
			t.Fatalf("chop %d: replayed %d records, want 49", chop, n)
		}
		// Reopen appends after the valid prefix.
		w2, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("chop %d: reopen: %v", chop, err)
		}
		lsn, _ := w2.Append([]byte("after-crash"))
		if lsn != 50 {
			t.Fatalf("chop %d: lsn after torn reopen = %d, want 50", chop, lsn)
		}
		w2.Sync()
		w2.Close()
		n = 0
		st, err = Replay(dir, nil, func(lsn uint64, p []byte) error { n++; return nil })
		if err != nil || n != 50 || st.TornTail {
			t.Fatalf("chop %d: post-recovery replay n=%d st=%+v err=%v", chop, n, st, err)
		}
	}
}

// TestWALTornTailHugeLength: a final frame whose length word points
// past the end of the segment — stale bytes where a crash cut the
// frame — is a torn tail like any other, not corruption.
func TestWALTornTailHugeLength(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(dir, WALOptions{})
	for i := 0; i < 3; i++ {
		w.Append([]byte("rec"))
	}
	w.Sync()
	w.Close()
	segs, _ := listSegments(dir)
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'x'})
	f.Close()
	var n int
	st, err := Replay(dir, nil, func(lsn uint64, p []byte) error { n++; return nil })
	if err != nil || !st.TornTail || n != 3 {
		t.Fatalf("replay n=%d st=%+v err=%v, want 3 records and a torn tail", n, st, err)
	}
	w, err = OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if lsn, err := w.Append([]byte("next")); err != nil || lsn != 4 {
		t.Fatalf("append after reopen: lsn %d, err %v", lsn, err)
	}
}

// TestWALCRCCorruption flips payload bytes mid-stream: corruption in a
// non-final segment must fail replay loudly, not silently skip.
func TestWALCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(dir, WALOptions{SegmentBytes: 2048, CommitInterval: -1})
	for i := 0; i < 100; i++ {
		w.Append(bytes.Repeat([]byte{'x'}, 128))
		w.Sync()
	}
	w.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[walHeaderSize+frameHeader+5] ^= 0xff
	os.WriteFile(segs[0].path, raw, 0o644)
	_, err = Replay(dir, nil, func(lsn uint64, p []byte) error { return nil })
	if err == nil {
		t.Fatal("mid-stream corruption replayed without error")
	}
}

// TestWALCrashInjection tears the write stream at random offsets via
// the failpoint file: replay must always recover a clean prefix of
// what was appended, never garbage.
func TestWALCrashInjection(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		budget := int64(100 + trial*137)
		var mu sync.Mutex
		var files []*FailFile
		remaining := budget
		open := func(p string) (File, error) {
			inner, err := OpenOSFile(p)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			ff := NewFailFile(inner, remaining)
			files = append(files, ff)
			mu.Unlock()
			return ff, nil
		}
		w, err := OpenWAL(dir, WALOptions{CommitInterval: -1, OpenFile: open})
		if err != nil {
			continue // crashed during segment creation: nothing to check
		}
		for i := 0; i < 200; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("payload-%03d", i))); err != nil {
				break
			}
			if err := w.Sync(); err != nil {
				break
			}
		}
		w.Close()

		var n int
		st, err := Replay(dir, nil, func(lsn uint64, p []byte) error {
			want := fmt.Sprintf("payload-%03d", int(lsn-1))
			if string(p) != want {
				return fmt.Errorf("lsn %d: %q != %q", lsn, p, want)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (budget %d): replay: %v (stats %+v)", trial, budget, err, st)
		}
		if n > 200 {
			t.Fatalf("trial %d: replayed %d > appended", trial, n)
		}
	}
}

func TestWALConcurrentCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{CommitInterval: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append([]byte(fmt.Sprintf("w%d-%d", g, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	syncs := w.Syncs()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if syncs >= writers*per {
		t.Fatalf("no group commit: %d fsyncs for %d commits", syncs, writers*per)
	}
	var n int
	_, err = Replay(dir, nil, func(lsn uint64, p []byte) error { n++; return nil })
	if err != nil || n != writers*per {
		t.Fatalf("replay n=%d err=%v", n, err)
	}
}

// FuzzWALReplay feeds arbitrary bytes as a segment file: replay must
// never panic, and must never deliver a record that was not framed
// with a valid CRC.
func FuzzWALReplay(f *testing.F) {
	// Seed with a genuine segment.
	dir := f.TempDir()
	w, _ := OpenWAL(dir, WALOptions{})
	w.Append([]byte("seed-record-one"))
	w.Append([]byte("seed-record-two"))
	w.Sync()
	w.Close()
	segs, _ := listSegments(dir)
	raw, _ := os.ReadFile(segs[0].path)
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentPath("", 1)), data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Replay(dir, nil, func(lsn uint64, p []byte) error { return nil })
		if err == nil && st.Records > 0 && st.FirstLSN == 0 {
			t.Fatalf("records without first LSN: %+v", st)
		}
		// Reopen over the same bytes must also never panic, and the
		// reopened log must accept an append + replay round trip.
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			return
		}
		if _, err := w.Append([]byte("post")); err == nil {
			w.Sync()
		}
		w.Close()
		Replay(dir, nil, func(lsn uint64, p []byte) error { return nil })
	})
}

// stallFile stands in for a stalled disk: every write past the segment
// header waits until release is closed, then fails with err when err is
// set.
type stallFile struct {
	File
	release <-chan struct{}
	err     error
}

func (f stallFile) WriteAt(p []byte, off int64) (int, error) {
	if off >= walHeaderSize {
		<-f.release
		if f.err != nil {
			return 0, f.err
		}
	}
	return f.File.WriteAt(p, off)
}

// openStalled opens a WAL in dir whose segment writes stall until
// release is closed and then fail with err (nil: succeed).
func openStalled(t *testing.T, dir string, release <-chan struct{}, err error) *WAL {
	t.Helper()
	w, oerr := OpenWAL(dir, WALOptions{CommitInterval: -1, OpenFile: func(p string) (File, error) {
		f, err2 := OpenOSFile(p)
		if err2 != nil {
			return nil, err2
		}
		return stallFile{File: f, release: release, err: err}, nil
	}})
	if oerr != nil {
		t.Fatal(oerr)
	}
	return w
}

// waitFull waits until the append buffer cannot take one more frame of
// size frame, i.e. until the next Append of that size blocks.
func waitFull(t *testing.T, w *WAL, frame int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		full := len(w.buf) > 0 && len(w.buf)+frame > maxBufferedBytes
		w.mu.Unlock()
		if full {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("append buffer never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALAppendBlocksAtBound: with the disk stalled, appenders stop
// once the buffer holds maxBufferedBytes of frames, whatever the
// timing; once the disk moves again every record lands in LSN order.
func TestWALAppendBlocksAtBound(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	w := openStalled(t, dir, release, nil)
	payload := bytes.Repeat([]byte{'p'}, 4096)
	frame := frameHeader + len(payload)
	n := 3 * maxBufferedBytes / frame
	var appended atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(payload, uint32(i))
			if _, err := w.Append(payload); err != nil {
				t.Error(err)
				return
			}
			appended.Add(1)
		}
	}()
	waitFull(t, w, frame)
	time.Sleep(20 * time.Millisecond)
	got := int(appended.Load())
	// The flusher holds the first swapped-out batch, the buffer at most
	// maxBufferedBytes more.
	if got >= n || got*frame > 2*maxBufferedBytes {
		t.Fatalf("%d appends (%d bytes) returned past a stalled disk", got, got*frame)
	}
	close(release)
	<-done
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var replayed int
	if _, err := Replay(dir, nil, func(lsn uint64, p []byte) error {
		if i := binary.LittleEndian.Uint32(p); uint64(i) != lsn-1 {
			return fmt.Errorf("lsn %d holds record %d", lsn, i)
		}
		replayed++
		return nil
	}); err != nil || replayed != n {
		t.Fatalf("replayed %d of %d records, err %v", replayed, n, err)
	}
}

// TestWALOversizedRecordAdmitted: a record larger than the bound still
// goes into an empty buffer, and the next record waits behind it.
func TestWALOversizedRecordAdmitted(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	w := openStalled(t, dir, release, nil)
	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{'b'}, maxBufferedBytes+1)
	if _, err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Append([]byte("last"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("append returned (err %v) behind a full buffer and a stalled disk", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	if _, err := Replay(dir, nil, func(lsn uint64, p []byte) error {
		sizes = append(sizes, len(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{5, len(big), 4}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("replayed record sizes %v, want %v", sizes, want)
	}
}

// TestWALBlockedAppendersReleased: Close and a sticky flusher error
// each release appenders waiting at the bound with an error.
func TestWALBlockedAppendersReleased(t *testing.T) {
	diskErr := fmt.Errorf("disk gone")
	for _, tc := range []struct {
		name string
		err  error // what the stalled write returns once released
	}{{"close", nil}, {"flusher-error", diskErr}} {
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			w := openStalled(t, t.TempDir(), release, tc.err)
			payload := bytes.Repeat([]byte{'p'}, 64<<10)
			const appenders = 3
			errs := make(chan error, appenders)
			for g := 0; g < appenders; g++ {
				go func() {
					for {
						if _, err := w.Append(payload); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			waitFull(t, w, frameHeader+len(payload))
			closed := make(chan error, 1)
			if tc.err == nil {
				go func() { closed <- w.Close() }()
			} else {
				close(release)
			}
			for g := 0; g < appenders; g++ {
				select {
				case err := <-errs:
					if tc.err != nil && err != tc.err {
						t.Errorf("appender error %v, want %v", err, tc.err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("blocked appender never released")
				}
			}
			if tc.err == nil {
				close(release)
				if err := <-closed; err != nil {
					t.Fatal(err)
				}
			} else if err := w.Close(); err != tc.err {
				t.Fatalf("Close = %v, want %v", err, tc.err)
			}
		})
	}
}
