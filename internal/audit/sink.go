package audit

import (
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Asynchronous durable sink. The seed implementation JSON-encoded
// every entry to the sink writer inside the log's critical section,
// allocating a fresh encoder per entry; here durability is a
// background flusher fed through a bounded queue. Appenders only
// enqueue (sequence assignment and enqueue are one atomic step, so
// the durable stream is written in sequence order); one goroutine
// owns the encoder and the batch buffer, encodes outside every log
// lock, and writes batches triggered by size or interval.

// ErrSinkOverflow is reported through the error callback when the
// sink queue is full and the backpressure policy is DropOnFull.
var ErrSinkOverflow = errors.New("audit: sink queue full, entry dropped")

// SinkOptions tunes the asynchronous sink attached by SetSinkOptions.
// The zero value selects the defaults noted per field.
type SinkOptions struct {
	// BatchSize is the number of entries that force a flush of the
	// encode buffer to the writer. Default 128.
	BatchSize int
	// Interval is the maximum time an encoded entry waits buffered
	// before a flush. Default 50ms. Negative disables the timer
	// (flushes happen on BatchSize, Flush, and close only).
	Interval time.Duration
	// Queue is the bounded channel capacity between appenders and the
	// flusher. Default 4096.
	Queue int
	// DropOnFull selects the backpressure policy when the queue is
	// full: true drops the entry (reported via the error callback as
	// ErrSinkOverflow; the in-memory append still succeeds), false
	// blocks the appender until the flusher catches up. Default
	// false — audit durability is lossless unless explicitly traded.
	DropOnFull bool
}

// stampedWriter receives the flusher's batches as (seq, entry) pairs
// instead of encoded JSON lines. The durable store plugs its WAL feed
// in here, so every entry's sequence number travels with it into the
// recovery log. writeStamped is called from the single flusher
// goroutine with batches in sequence order; syncStamped is the
// durability barrier behind Flush/CloseSink.
type stampedWriter interface {
	// dropHigh is the highest sequence number assigned to an entry the
	// sink dropped under DropOnFull (0 if none): the writer persists it
	// so recovery can count gaps past the last surviving record.
	writeStamped(batch []stamped, dropHigh uint64) error
	syncStamped() error
}

// sink is the running flusher state. Appenders coalesce entries into
// the pending buffer under the mutex — sequence assignment and
// enqueue are one critical section (the flush-ordering invariant) —
// and the flusher swaps the whole buffer out per wakeup, so the
// per-entry enqueue cost is a slice append, not a channel round-trip.
type sink struct {
	mu       sync.Mutex
	closed   bool
	pending  []stamped       // enqueued entries, in sequence order
	barriers []chan struct{} // flush waiters, closed after the next drain
	full     sync.Cond       // blocking-backpressure waiters (on mu)

	wake     chan struct{} // cap 1: coalesced flusher wakeup
	done     chan struct{}
	w        io.Writer
	bw       stampedWriter // when set, batches bypass JSON encoding
	onErr    func(error)
	batch    int
	queue    int
	interval time.Duration
	drop     bool
	dropped  atomic.Uint64
	dropHigh uint64 // highest dropped seq (under mu); see stampedWriter
}

func newSink(w io.Writer, onErr func(error), opts SinkOptions) *sink {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 128
	}
	if opts.Interval == 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.Queue <= 0 {
		opts.Queue = 4096
	}
	s := &sink{
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		w:        w,
		onErr:    onErr,
		batch:    opts.BatchSize,
		queue:    opts.Queue,
		interval: opts.Interval,
		drop:     opts.DropOnFull,
	}
	s.full.L = &s.mu
	return s
}

// wakeFlusher nudges the flusher; a pending token already guarantees
// a future drain, so the send never blocks.
func (s *sink) wakeFlusher() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// send assigns the entries' sequence numbers, in order, into seqs and
// enqueues them for the flusher in one critical section, which
// blocking backpressure leaves only while it waits for the flusher.
// After close it only assigns sequences — the in-memory append must
// not be blocked by a torn-down sink. Each enqueued copy without a
// site is stamped with site.
func (s *sink) send(l *Log, entries []Entry, site string, seqs []uint64) {
	drops := 0
	s.mu.Lock()
	for i := range entries {
		if s.drop && !s.closed && len(s.pending) >= s.queue {
			seqs[i] = l.seq.Add(1)
			s.dropHigh = seqs[i]
			drops++
			continue
		}
		if !s.drop && !s.closed && len(s.pending) >= s.queue {
			s.wakeFlusher() // drain what this batch enqueued so far
			for !s.closed && len(s.pending) >= s.queue {
				s.full.Wait()
			}
		}
		seqs[i] = l.seq.Add(1)
		if !s.closed {
			st := stamped{seq: seqs[i], e: entries[i]}
			if st.e.Site == "" {
				st.e.Site = site
			}
			s.pending = append(s.pending, st)
		}
	}
	s.mu.Unlock()
	s.wakeFlusher()
	if drops > 0 {
		s.dropped.Add(uint64(drops))
		if s.onErr != nil {
			for ; drops > 0; drops-- {
				s.onErr(ErrSinkOverflow)
			}
		}
	}
}

// plainJSON reports whether every byte of v can be emitted inside a
// JSON string verbatim under encoding/json's default (HTML-escaping)
// rules: printable ASCII excluding the quote, backslash and the
// HTML-significant characters.
func plainJSON(v string) bool {
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONLine encodes the entry exactly as a stdlib json.Encoder
// would — same field order, omitempty handling, HTML escaping and
// trailing newline — but without reflection, which is the flusher's
// dominant per-entry cost. Entries carrying bytes outside the plain
// ASCII fast path fall back to encoding/json for byte-identical
// escaping.
func appendJSONLine(dst []byte, e *Entry) ([]byte, error) {
	if !plainJSON(e.User) || !plainJSON(e.Data) || !plainJSON(e.Purpose) ||
		!plainJSON(e.Authorized) || !plainJSON(e.Site) || !plainJSON(e.Reason) {
		b, err := json.Marshal(e)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, `{"time":"`...)
	dst = e.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","op":`...)
	dst = strconv.AppendInt(dst, int64(e.Op), 10)
	dst = append(dst, `,"user":"`...)
	dst = append(dst, e.User...)
	dst = append(dst, `","data":"`...)
	dst = append(dst, e.Data...)
	dst = append(dst, `","purpose":"`...)
	dst = append(dst, e.Purpose...)
	dst = append(dst, `","authorized":"`...)
	dst = append(dst, e.Authorized...)
	dst = append(dst, `","status":`...)
	dst = strconv.AppendInt(dst, int64(e.Status), 10)
	if e.Site != "" {
		dst = append(dst, `,"site":"`...)
		dst = append(dst, e.Site...)
		dst = append(dst, '"')
	}
	if e.Reason != "" {
		dst = append(dst, `,"reason":"`...)
		dst = append(dst, e.Reason...)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...), nil
}

// AppendSinkJSON appends the sink's hand-rolled JSON-line encoding of
// e to dst — the exact bytes the durable JSONL sink writes per entry.
// Exported as the baseline for the wire codec benchmarks: the binary
// batch codec's per-entry cost is measured against this encoder.
func AppendSinkJSON(dst []byte, e *Entry) ([]byte, error) {
	return appendJSONLine(dst, e)
}

// run is the flusher goroutine: per wakeup it swaps the whole pending
// buffer out, encodes each entry as one JSON line into its owned
// buffer, and writes to the sink writer when the batch fills, the
// interval elapses, a flush barrier arrives, or the sink closes.
// Write errors surface through the error callback; the failed batch
// is dropped, later entries continue (the clinical workflow stays
// unimpeded, the durability fault is reported — the paper's first
// design constraint).
func (s *sink) run() {
	var tickC <-chan time.Time
	if s.interval > 0 {
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		tickC = tick.C
	}
	buf := make([]byte, 0, 4096)
	n := 0
	flush := func() {
		if s.bw != nil {
			if err := s.bw.syncStamped(); err != nil && s.onErr != nil {
				s.onErr(err)
			}
			return
		}
		if len(buf) == 0 {
			n = 0
			return
		}
		if _, err := s.w.Write(buf); err != nil && s.onErr != nil {
			s.onErr(err)
		}
		buf = buf[:0]
		n = 0
	}
	var batch []stamped
	for {
		var tick bool
		select {
		case <-s.wake:
		case <-tickC:
			tick = true
		}
		s.mu.Lock()
		batch, s.pending = s.pending, batch[:0]
		barriers := s.barriers
		s.barriers = nil
		closed := s.closed
		dropHigh := s.dropHigh
		if len(batch) > 0 && !s.drop {
			s.full.Broadcast()
		}
		s.mu.Unlock()
		if s.bw != nil {
			if len(batch) > 0 || dropHigh > 0 {
				if err := s.bw.writeStamped(batch, dropHigh); err != nil && s.onErr != nil {
					s.onErr(err)
				}
			}
		} else {
			for i := range batch {
				var err error
				if buf, err = appendJSONLine(buf, &batch[i].e); err != nil && s.onErr != nil {
					s.onErr(err)
				}
				if n++; n >= s.batch {
					flush()
				}
			}
		}
		if tick || len(barriers) > 0 || closed {
			flush()
		}
		for _, c := range barriers {
			close(c)
		}
		if closed {
			close(s.done)
			return
		}
	}
}

// flushWait registers a flush barrier and waits for the flusher to
// write everything enqueued before it.
func (s *sink) flushWait() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	done := make(chan struct{})
	s.barriers = append(s.barriers, done)
	s.mu.Unlock()
	s.wakeFlusher()
	<-done
}

// close stops intake and waits for the flusher to drain and write its
// final batch. Idempotent.
func (s *sink) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.closed = true
	s.full.Broadcast()
	s.mu.Unlock()
	s.wakeFlusher()
	<-s.done
}

// SetSink attaches a durable writer with default SinkOptions: every
// appended entry is encoded as one JSON line by a background flusher
// and written in append order. onErr (may be nil) is invoked when a
// sink write fails or an entry is dropped under the DropOnFull
// policy; the in-memory append always succeeds. Replacing or
// clearing (w == nil) a previous sink flushes and stops it first.
// Call Flush to wait for pending writes, CloseSink to detach.
func (l *Log) SetSink(w io.Writer, onErr func(error)) {
	l.SetSinkOptions(w, onErr, SinkOptions{})
}

// SetSinkOptions is SetSink with explicit batching, queue, and
// backpressure configuration.
func (l *Log) SetSinkOptions(w io.Writer, onErr func(error), opts SinkOptions) {
	var ns *sink
	if w != nil {
		ns = newSink(w, onErr, opts)
		go ns.run()
	}
	if old := l.sink.Swap(ns); old != nil {
		old.close()
	}
}

// setBatchSink attaches a stampedWriter-backed sink (the durable
// store's WAL feed) with the same lifecycle and backpressure rules as
// SetSinkOptions.
func (l *Log) setBatchSink(bw stampedWriter, onErr func(error), opts SinkOptions) {
	ns := newSink(nil, onErr, opts)
	ns.bw = bw
	go ns.run()
	if old := l.sink.Swap(ns); old != nil {
		old.close()
	}
}

// Flush blocks until every entry appended before the call has been
// written to the sink. No-op without a sink.
func (l *Log) Flush() {
	if s := l.sink.Load(); s != nil {
		s.flushWait()
	}
}

// CloseSink flushes pending entries, stops the flusher, and detaches
// the sink. No-op without a sink.
func (l *Log) CloseSink() {
	if old := l.sink.Swap(nil); old != nil {
		old.close()
	}
}

// SinkDropped reports how many entries the current sink has dropped
// under the DropOnFull policy (0 without a sink).
func (l *Log) SinkDropped() uint64 {
	if s := l.sink.Load(); s != nil {
		return s.dropped.Load()
	}
	return 0
}
