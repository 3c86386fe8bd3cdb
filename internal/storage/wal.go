package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Group-commit write-ahead log. Records are CRC frames (frame.go)
// inside segment files named wal-<firstLSN>.seg; the LSN of a record
// is implicit in its position (segment firstLSN + record index), so
// frames carry no redundant sequence field. Appends land in an
// in-memory buffer and return immediately with their LSN; a single
// flusher goroutine swaps the double buffer, writes the batch, fsyncs
// once, and wakes every committer waiting at or below the batch's last
// LSN — that one fsync amortized over the whole batch is the group
// commit. Commit callers therefore wait at most one commit interval
// plus one write+fsync. The append buffer holds at most
// maxBufferedBytes of frames: past that, Append waits for the flusher
// to swap the buffer out, so a stalled disk holds appenders back after
// a fixed number of bytes instead of letting the buffer grow. The
// flusher rolls to a new segment past SegmentBytes, or when Roll asks
// it to, always between two batches; TruncateBefore deletes closed
// segments whole.
//
// Recovery reads segments in LSN order verifying each frame CRC. An
// invalid frame at the tail of the final segment is a torn tail —
// the expected wreckage of a crash mid-write — and replay stops
// cleanly there; an invalid frame anywhere else is corruption and
// replay fails loudly. On reopen the torn tail is truncated away so
// new appends never sit behind garbage.

const (
	walMagic      = 0x4c415750 // "PWAL"
	walHeaderSize = 16
)

// WALOptions tunes OpenWAL.
type WALOptions struct {
	// SegmentBytes rolls to a new segment file past this size
	// (default 16 MiB).
	SegmentBytes int64
	// CommitInterval is the group-commit window: how long the flusher
	// gathers appends before the shared fsync (default 2ms; negative
	// means no gathering — flush as soon as there is anything).
	CommitInterval time.Duration
	// NoSync skips fsyncs (benchmark baseline only).
	NoSync bool
	// OpenFile opens segment files; defaults to OpenOSFile.
	OpenFile OpenFileFunc
}

const (
	defaultSegmentBytes   = 16 << 20
	defaultCommitInterval = 2 * time.Millisecond
	// maxBufferedBytes bounds the frames waiting in the append buffer.
	// A record larger than the bound is still admitted into an empty
	// buffer.
	maxBufferedBytes = 4 << 20
)

type walSegment struct {
	first uint64 // LSN of the segment's first record
	path  string
}

// WAL is one write-ahead log directory.
type WAL struct {
	dir  string
	open OpenFileFunc
	opts WALOptions

	mu       sync.Mutex
	buf      []byte // append buffer (owned by appenders)
	flushing []byte // flusher's side of the double buffer
	bufEnd   uint64 // last LSN sitting in buf
	nextLSN  uint64 // LSN the next append receives
	durable  uint64 // last LSN known flushed+synced
	err      error  // sticky flusher error
	closing  bool
	rollReq  bool // Roll waits for the flusher to roll the segment

	work    sync.Cond // appenders and Roll -> flusher: work to do
	room    sync.Cond // flusher -> appenders: buffer swapped out
	synced  sync.Cond // flusher -> committers and Roll: durable advanced, segment rolled
	done    chan struct{}
	started bool

	seg      File // active segment
	segPath  string
	segFirst uint64
	segSize  int64
	segments []walSegment // closed segments, ascending firstLSN
	syncs    uint64
}

// OpenWAL opens (creating if needed) the log in dir, truncating any
// torn tail left by a crash, and starts the flusher.
func OpenWAL(dir string, o WALOptions) (*WAL, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.CommitInterval == 0 {
		o.CommitInterval = defaultCommitInterval
	}
	if o.OpenFile == nil {
		o.OpenFile = OpenOSFile
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, open: o.OpenFile, opts: o, done: make(chan struct{})}
	w.work.L = &w.mu
	w.room.L = &w.mu
	w.synced.L = &w.mu

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		w.nextLSN = 1
		if err := w.rollLocked(); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		f, err := w.open(last.path)
		if err != nil {
			return nil, err
		}
		records, validBytes, _, err := scanSegment(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: wal %s: %w", last.path, err)
		}
		size, err := f.Size()
		if err == nil && size > validBytes {
			// Drop the torn tail so new appends never sit behind garbage.
			err = f.Truncate(validBytes)
		}
		if err == nil && records == 0 {
			// The crash may have torn the segment header itself; the
			// first LSN is authoritative in the file name, so rewriting
			// is always safe.
			err = writeSegmentHeader(f, last.first)
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		w.seg = f
		w.segPath = last.path
		w.segFirst = last.first
		w.segSize = validBytes
		w.segments = segs[:len(segs)-1]
		w.nextLSN = last.first + uint64(records)
	}
	w.durable = w.nextLSN - 1
	w.started = true
	go w.run()
	return w, nil
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", first))
}

func listSegments(dir string) ([]walSegment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range ents {
		var first uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%016x.seg", &first); n == 1 {
			segs = append(segs, walSegment{first: first, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// rollLocked closes the active segment (if any) and starts a new one
// whose first record will be nextLSN. Called with mu held or before
// the flusher starts.
func (w *WAL) rollLocked() error {
	if w.seg != nil {
		if err := w.seg.Close(); err != nil {
			return err
		}
		w.segments = append(w.segments, walSegment{first: w.segFirst, path: w.segPath})
	}
	path := segmentPath(w.dir, w.nextLSN)
	f, err := w.open(path)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(f, w.nextLSN); err != nil {
		f.Close()
		return err
	}
	w.seg = f
	w.segPath = path
	w.segFirst = w.nextLSN
	w.segSize = walHeaderSize
	return nil
}

func writeSegmentHeader(f File, first uint64) error {
	hdr := make([]byte, walHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], 1) // format version
	binary.LittleEndian.PutUint64(hdr[8:16], first)
	_, err := f.WriteAt(hdr, 0)
	return err
}

// Append buffers one record and returns its LSN. The record is not
// durable until Commit(lsn) (or Sync) returns. While the buffer cannot
// take the record's frame within maxBufferedBytes, Append waits for the
// flusher to swap it out; Close and a flusher error release it.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.buf) > 0 && len(w.buf)+frameHeader+len(payload) > maxBufferedBytes && w.err == nil && !w.closing {
		w.room.Wait()
	}
	if w.err != nil {
		return 0, w.err
	}
	if w.closing {
		return 0, fmt.Errorf("storage: wal closed")
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.buf = AppendFrame(w.buf, payload)
	w.bufEnd = lsn
	w.work.Signal()
	return lsn, nil
}

// Commit blocks until every record with LSN <= lsn is flushed and
// fsynced, sharing the fsync with every other commit in the window.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < lsn && w.err == nil {
		if w.closing {
			return fmt.Errorf("storage: wal closed")
		}
		w.synced.Wait()
	}
	return w.err
}

// Sync commits everything appended so far.
func (w *WAL) Sync() error {
	w.mu.Lock()
	lsn := w.nextLSN - 1
	w.mu.Unlock()
	return w.Commit(lsn)
}

// LastLSN returns the most recently assigned LSN (0 = none yet).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// DurableLSN returns the last fsynced LSN.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// Syncs returns the number of fsyncs issued (group-commit
// amortization metric).
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Roll makes the flusher close the active segment and start a new
// one at its next batch boundary, and waits until it has: every record
// durable before the call then sits in a closed segment, which
// TruncateBefore can delete once a checkpoint covers it. Records
// appended but not yet flushed go to the new segment. An active
// segment with no records is kept.
func (w *WAL) Roll() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closing {
		return fmt.Errorf("storage: wal closed")
	}
	w.rollReq = true
	w.work.Signal()
	for w.rollReq && w.err == nil {
		w.synced.Wait()
	}
	return w.err
}

// run is the flusher goroutine: gather a batch for one commit
// interval, write it, fsync once, wake the committers. A requested
// roll is served first, between two batches.
func (w *WAL) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && !w.rollReq && !w.closing && w.err == nil {
			w.work.Wait()
		}
		if w.rollReq && w.err == nil {
			// Every batch swapped out so far is written, so the next
			// record to reach the disk is durable+1.
			next := w.durable + 1
			w.mu.Unlock()
			var err error
			if w.segSize > walHeaderSize {
				err = w.rollAt(next)
			}
			w.mu.Lock()
			w.rollReq = false
			if err != nil {
				w.err = err
			}
			w.synced.Broadcast()
			if len(w.buf) == 0 && !w.closing && w.err == nil {
				w.mu.Unlock()
				continue
			}
		}
		if (w.closing && len(w.buf) == 0) || w.err != nil {
			w.synced.Broadcast() // release any committer still waiting
			w.room.Broadcast()   // and any appender
			w.mu.Unlock()
			return
		}
		interval := w.opts.CommitInterval
		closing := w.closing
		w.mu.Unlock()
		if interval > 0 && !closing {
			time.Sleep(interval) // the group-commit gathering window
		}
		w.mu.Lock()
		w.buf, w.flushing = w.flushing[:0], w.buf
		batchEnd := w.bufEnd
		w.room.Broadcast()
		w.mu.Unlock()

		err := w.writeBatch(w.flushing)
		if err == nil && !w.opts.NoSync {
			err = w.seg.Sync()
		}

		w.mu.Lock()
		if err != nil {
			w.err = err
		} else {
			w.durable = batchEnd
			w.syncs++
		}
		w.synced.Broadcast()
		w.mu.Unlock()
	}
}

// writeBatch appends the encoded frames to the active segment,
// rolling first when the segment is over budget. Only the flusher
// calls this, so seg* fields are stable outside mu.
func (w *WAL) writeBatch(b []byte) error {
	if w.segSize >= w.opts.SegmentBytes {
		if !w.opts.NoSync {
			if err := w.seg.Sync(); err != nil {
				return err
			}
		}
		// Rolling happens only at batch boundaries (the implicit
		// per-segment LSN numbering depends on it); the batch about to
		// be written becomes the new segment's first records, so its
		// first LSN — durable+1 — names the file.
		w.mu.Lock()
		next := w.durable + 1
		w.mu.Unlock()
		if err := w.rollAt(next); err != nil {
			return err
		}
	}
	if _, err := w.seg.WriteAt(b, w.segSize); err != nil {
		return err
	}
	w.segSize += int64(len(b))
	return nil
}

// rollAt closes the active segment and opens one starting at first.
func (w *WAL) rollAt(first uint64) error {
	if err := w.seg.Close(); err != nil {
		return err
	}
	w.mu.Lock()
	w.segments = append(w.segments, walSegment{first: w.segFirst, path: w.segPath})
	w.mu.Unlock()
	path := segmentPath(w.dir, first)
	f, err := w.open(path)
	if err != nil {
		return err
	}
	if err := writeSegmentHeader(f, first); err != nil {
		f.Close()
		return err
	}
	w.seg = f
	w.segPath = path
	w.segFirst = first
	w.segSize = walHeaderSize
	return nil
}

// TruncateBefore removes closed segments every record of which has
// LSN < lsn. The active segment is never removed, so truncation is
// always whole-file deletion — crash-safe by construction (a surviving
// segment just gets skipped again on the next replay).
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	var keep, drop []walSegment
	for i, s := range w.segments {
		end := w.segFirst // first LSN of the NEXT segment bounds this one
		if i+1 < len(w.segments) {
			end = w.segments[i+1].first
		}
		if end <= lsn {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	w.segments = keep
	w.mu.Unlock()
	for _, s := range drop {
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Close flushes, fsyncs and stops the flusher.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closing {
		w.mu.Unlock()
		<-w.done
		return w.err
	}
	w.closing = true
	w.work.Signal()
	w.room.Broadcast()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seg != nil {
		if err := w.seg.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.seg = nil
	}
	return w.err
}

// ReplayStats reports what Replay found.
type ReplayStats struct {
	Records  int
	Segments int
	Bytes    int64
	TornTail bool
	FirstLSN uint64
	LastLSN  uint64
}

// Replay streams every valid record in dir to fn in LSN order. A
// corrupt frame at the tail of the final segment stops replay cleanly
// (TornTail); corruption anywhere else is an error. fn returning an
// error aborts. The payload passed to fn is valid only until fn
// returns.
func Replay(dir string, open OpenFileFunc, fn func(lsn uint64, payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	if open == nil {
		open = OpenOSFile
	}
	segs, err := listSegments(dir)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	for i, s := range segs {
		last := i == len(segs)-1
		f, err := open(s.path)
		if err != nil {
			return st, err
		}
		records, validBytes, torn, err := scanSegmentFunc(f, s.first, func(lsn uint64, payload []byte) error {
			if st.Records == 0 {
				st.FirstLSN = lsn
			}
			st.LastLSN = lsn
			st.Records++
			return fn(lsn, payload)
		})
		f.Close()
		if err != nil {
			return st, fmt.Errorf("storage: wal %s: %w", s.path, err)
		}
		if torn {
			if !last {
				return st, fmt.Errorf("storage: wal %s: corrupt frame after %d records in non-final segment", s.path, records)
			}
			st.TornTail = true
		}
		st.Segments++
		st.Bytes += validBytes
	}
	return st, nil
}

// scanSegment validates frames without delivering payloads.
func scanSegment(f File) (records int, validBytes int64, torn bool, err error) {
	return scanSegmentFunc(f, 0, nil)
}

// scanSegmentFunc walks one segment's frames through a FrameReader,
// optionally delivering payloads. It stops at the first invalid frame
// (torn=true) rather than erroring: the caller decides whether a torn
// tail is acceptable for this segment's position.
func scanSegmentFunc(f File, firstLSN uint64, fn func(lsn uint64, payload []byte) error) (records int, validBytes int64, torn bool, err error) {
	size, err := f.Size()
	if err != nil {
		return 0, 0, false, err
	}
	if size < walHeaderSize {
		return 0, walHeaderSize, size > 0, nil
	}
	hdr := make([]byte, walHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, false, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != walMagic {
		// A torn header is the same class of wreckage as a torn tail:
		// the crash hit during segment creation, before any record.
		return 0, walHeaderSize, true, nil
	}
	if firstLSN == 0 {
		firstLSN = binary.LittleEndian.Uint64(hdr[8:16])
	}
	fr := NewFrameReader(io.NewSectionReader(f, walHeaderSize, size-walHeaderSize), int(size-walHeaderSize))
	off := int64(walHeaderSize)
	for {
		payload, err := fr.Next()
		switch err {
		case nil:
		case io.EOF:
			return records, off, false, nil
		case io.ErrUnexpectedEOF, ErrFrameCorrupt, ErrFrameTooLarge:
			return records, off, true, nil
		default:
			return records, off, false, err
		}
		if fn != nil {
			if err := fn(firstLSN+uint64(records), payload); err != nil {
				return records, off, false, err
			}
		}
		records++
		off += frameHeader + int64(len(payload))
	}
}
