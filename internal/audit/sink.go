package audit

import (
	"sync"

	"repro/internal/storage"
)

// Asynchronous WAL feed. Appenders only enqueue (sequence assignment
// and enqueue are one atomic step, so the WAL is written in sequence
// order); one goroutine encodes each entry as a WAL record outside
// every log lock and appends it to the durable store's WAL, whose own
// flusher makes it durable within one commit interval. Backpressure
// comes from two bounds: the queue holds at most sinkQueue entries,
// and the WAL's append buffer a fixed number of bytes, so a stalled
// disk holds appenders back after a bounded amount of work.

// sinkQueue bounds the entries waiting for the sink goroutine. A full
// queue blocks the appender until the goroutine catches up, so the
// sink never loses an entry.
const sinkQueue = 4096

// sink is the running feed state. Appenders coalesce entries into the
// pending buffer under the mutex — sequence assignment and enqueue are
// one critical section (the flush-ordering invariant) — and the sink
// goroutine swaps the whole buffer out per wakeup, so the per-entry
// enqueue cost is a slice append, not a channel round-trip.
type sink struct {
	mu       sync.Mutex
	closed   bool
	pending  []stamped       // enqueued entries, in sequence order
	barriers []chan struct{} // flush waiters, closed after the next drain
	full     sync.Cond       // backpressure waiters (on mu)

	wake  chan struct{} // cap 1: coalesced wakeup
	done  chan struct{}
	wal   *storage.WAL
	onErr func(error)
}

// wakeFlusher nudges the sink goroutine; a pending token already
// guarantees a future drain, so the send never blocks.
func (s *sink) wakeFlusher() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// send assigns the entries' sequence numbers, in order, into seqs and
// enqueues them for the sink goroutine in one critical section, which
// backpressure leaves only while it waits for the goroutine.
// After close it only assigns sequences — the in-memory append must
// not be blocked by a torn-down sink. Each enqueued copy without a
// site is stamped with site.
func (s *sink) send(l *Log, entries []Entry, site string, seqs []uint64) {
	s.mu.Lock()
	for i := range entries {
		if !s.closed && len(s.pending) >= sinkQueue {
			s.wakeFlusher() // drain what this batch enqueued so far
			for !s.closed && len(s.pending) >= sinkQueue {
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
}

// run is the sink goroutine: per wakeup it swaps the whole pending
// buffer out and appends each entry to the WAL as one record. A flush
// barrier or close waits for the WAL to commit everything appended so
// far. WAL errors surface through the error callback; the rest of the
// failed batch is dropped, later entries continue (the clinical
// workflow stays unimpeded, the durability fault is reported — the
// paper's first design constraint).
func (s *sink) run() {
	var batch []stamped
	var rec []byte
	report := func(err error) {
		if err != nil && s.onErr != nil {
			s.onErr(err)
		}
	}
	for {
		<-s.wake
		s.mu.Lock()
		batch, s.pending = s.pending, batch[:0]
		barriers := s.barriers
		s.barriers = nil
		closed := s.closed
		if len(batch) > 0 {
			s.full.Broadcast()
		}
		s.mu.Unlock()
		for i := range batch {
			rec = appendStamped(rec[:0], batch[i].seq, &batch[i].e)
			if _, err := s.wal.Append(rec); err != nil {
				report(err)
				break
			}
		}
		if len(barriers) > 0 || closed {
			report(s.wal.Sync())
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

// flushWait registers a flush barrier and waits for the sink goroutine
// to commit everything enqueued before it.
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

// close stops intake and waits for the sink goroutine to drain and
// commit its final batch. Idempotent.
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

// attachWAL starts a sink feeding every later append into wal. The
// durable store attaches it once, after recovery.
func (l *Log) attachWAL(wal *storage.WAL, onErr func(error)) {
	s := &sink{wake: make(chan struct{}, 1), done: make(chan struct{}), wal: wal, onErr: onErr}
	s.full.L = &s.mu
	go s.run()
	l.sink.Store(s)
}

// flush blocks until every entry appended before the call is committed
// to the WAL. No-op without a sink.
func (l *Log) flush() {
	if s := l.sink.Load(); s != nil {
		s.flushWait()
	}
}

// closeSink commits pending entries, stops the sink goroutine and
// detaches the sink. No-op without a sink.
func (l *Log) closeSink() {
	if s := l.sink.Swap(nil); s != nil {
		s.close()
	}
}
