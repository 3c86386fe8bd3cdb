package netfed

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/storage"
)

// Streamer is the site side of the wire federation: it tails a live
// audit.Log through the seq-contiguous export cursor and ships delta
// batches to a consolidator, pipelining up to a window of unacked
// batches (backpressure: when the window is full the streamer blocks
// until the consolidator acks), group-flushing framed writes through
// one buffered writer, and resuming from the server's acknowledged
// sequence after a reconnect — no duplicate, no gap.
type Streamer struct {
	log  *audit.Log
	site string
	opts StreamerOptions

	acked atomic.Uint64 // highest seq acked by the server

	// Cumulative transport counters (atomics: read by Stats while the
	// run loop writes).
	sentBatches  atomic.Uint64
	sentBytes    atomic.Uint64
	reconnects   atomic.Uint64
	retransmits  atomic.Uint64
	ackWake      chan struct{} // cap 1: coalesced window-space wakeup
	mu           sync.Mutex    // guards inflight + lag below
	inflight     []sentBatch   // FIFO, oldest first
	lag          []time.Duration
	lagNext      int
	lagFull      bool
	cursor       audit.ExportCursor
	sessionErrMu sync.Mutex
	sessionErr   error // terminal error latched by the ack reader
}

// sentBatch is one unacked batch: its seq range, the encoded frame
// (kept verbatim for retransmission after a reconnect) and the send
// time (the consolidation-lag sample taken when the ack arrives).
type sentBatch struct {
	base, last uint64
	frame      []byte
	sentAt     time.Time
}

// StreamerOptions tunes a Streamer. The zero value of each field
// selects the default noted.
type StreamerOptions struct {
	// Dial opens a connection to the consolidator. Required — tests
	// inject failing/budgeted connections here; production passes a
	// net.Dialer closure.
	Dial func() (net.Conn, error)
	// BatchEntries caps entries per batch. Default 4096.
	BatchEntries int
	// Window caps unacked batches in flight; the server's hello ack
	// may lower it. Default 8.
	Window int
	// Poll is the idle wait between log checks when no new entries
	// are available. Default 1ms.
	Poll time.Duration
	// ReconnectWait is the base backoff after a failed connection;
	// it doubles per consecutive failure, capped at 1s. Default 50ms.
	ReconnectWait time.Duration
	// LagSamples is the ring capacity for consolidation-lag samples
	// (one per acked batch). Default 4096.
	LagSamples int
	// OnError observes transport faults the streamer recovers from
	// (disconnects, refused dials). May be nil. Terminal faults are
	// returned by Run instead.
	OnError func(error)
}

func (o StreamerOptions) withDefaults() StreamerOptions {
	if o.BatchEntries <= 0 {
		o.BatchEntries = 4096
	}
	if o.Window <= 0 {
		o.Window = 8
	}
	if o.Poll <= 0 {
		o.Poll = time.Millisecond
	}
	if o.ReconnectWait <= 0 {
		o.ReconnectWait = 50 * time.Millisecond
	}
	if o.LagSamples <= 0 {
		o.LagSamples = 4096
	}
	return o
}

// ErrResumeGap is terminal: after a reconnect the server's resume
// point is older than anything the streamer can replay (the server
// lost state, e.g. restarted empty, while the site's export cursor
// had moved on). The operator restarts the streamer from a fresh
// cursor to re-ship the log.
var ErrResumeGap = errors.New("netfed: server resume point predates replayable window")

// NewStreamer builds a streamer for the log. site names the stream to
// the consolidator; it defaults to the log's own site name.
func NewStreamer(l *audit.Log, site string, opts StreamerOptions) (*Streamer, error) {
	opts = opts.withDefaults()
	if opts.Dial == nil {
		return nil, errors.New("netfed: StreamerOptions.Dial is required")
	}
	if site == "" {
		site = l.Site()
	}
	if site == "" {
		return nil, errors.New("netfed: streamer needs a site name")
	}
	return &Streamer{
		log:     l,
		site:    site,
		opts:    opts,
		ackWake: make(chan struct{}, 1),
		lag:     make([]time.Duration, opts.LagSamples),
	}, nil
}

// Acked returns the highest sequence number the consolidator has
// acknowledged folding.
func (s *Streamer) Acked() uint64 { return s.acked.Load() }

// Run streams until ctx is cancelled (returns nil) or a terminal
// protocol fault occurs (returns it). Transport faults — broken
// connections, refused dials — are reported through OnError and
// retried with backoff; after every reconnect the stream resumes from
// the server's acknowledged sequence.
func (s *Streamer) Run(ctx context.Context) error {
	wait := s.opts.ReconnectWait
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		if attempt > 0 {
			s.reconnects.Add(1)
			if !sleepCtx(ctx, wait) {
				return nil
			}
			if wait *= 2; wait > time.Second {
				wait = time.Second
			}
		}
		conn, err := s.opts.Dial()
		if err != nil {
			s.report(fmt.Errorf("netfed: dial: %w", err))
			continue
		}
		err = s.session(ctx, conn)
		conn.Close()
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			var pe *protocolError
			if errors.Is(err, ErrResumeGap) || errors.Is(err, audit.ErrExportInvalidated) || errors.As(err, &pe) {
				return err // terminal: retrying cannot help
			}
			s.report(err)
			continue
		}
		wait = s.opts.ReconnectWait
	}
}

// session drives one connection: handshake, retransmit, then the
// export-encode-send loop until the connection breaks or ctx ends.
func (s *Streamer) session(ctx context.Context, conn net.Conn) error {
	// Unblock conn reads/writes when ctx ends: closing the conn is the
	// only portable cancel for net I/O.
	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watch:
		}
	}()

	bw := bufio.NewWriterSize(conn, 256<<10)
	fr := storage.NewFrameReader(conn, MaxFrame)

	// Handshake, synchronous: hello out, hello ack in.
	hb := storage.AppendFrame(nil, appendHello([]byte{MsgHello}, hello{version: ProtocolVersion, site: s.site}))
	if _, err := conn.Write(hb); err != nil {
		return fmt.Errorf("netfed: hello: %w", err)
	}
	typ, payload, err := nextMsg(fr)
	if err != nil {
		return fmt.Errorf("netfed: hello ack: %w", err)
	}
	if typ == MsgError {
		return parseErrorMsg(payload)
	}
	if typ != MsgHelloAck {
		return fmt.Errorf("netfed: unexpected handshake message type %d", typ)
	}
	ack, err := parseHelloAck(payload)
	if err != nil {
		return err
	}
	if ack.version != ProtocolVersion {
		return &protocolError{msg: fmt.Sprintf("protocol version %d, want %d", ack.version, ProtocolVersion)}
	}
	window := s.opts.Window
	if ack.window > 0 && int(ack.window) < window {
		window = int(ack.window)
	}
	if err := s.resumeFrom(ack.resume, bw); err != nil {
		return err
	}

	// Ack reader: owns the conn's read side for the session, releases
	// window space and records lag. Terminates when the conn breaks
	// (incl. the ctx watchdog closing it).
	errCh := make(chan error, 1)
	go func() {
		for {
			typ, payload, err := nextMsg(fr)
			if err != nil {
				errCh <- err
				return
			}
			switch typ {
			case MsgAck:
				seq, perr := parseAck(payload)
				if perr != nil {
					errCh <- perr
					return
				}
				s.onAck(seq)
			case MsgError:
				errCh <- parseErrorMsg(payload)
				return
			default:
				errCh <- fmt.Errorf("netfed: unexpected message type %d from server", typ)
				return
			}
		}
	}()

	idle := time.NewTimer(s.opts.Poll)
	defer idle.Stop()
	enc := NewEncoder()
	var payloadBuf []byte
	for {
		if err := ctx.Err(); err != nil {
			bw.Flush()
			return nil
		}
		if s.inflightLen() >= window {
			// Backpressure: the window is full. Group-flush what is
			// buffered and wait for ack space.
			if err := bw.Flush(); err != nil {
				return err
			}
			select {
			case <-s.ackWake:
			case err := <-errCh:
				return s.sessionFault(err)
			case <-ctx.Done():
				return nil
			}
			continue
		}
		entries, next, err := s.log.ExportDelta(s.cursor, s.opts.BatchEntries)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			// Idle: everything exported. Flush the write buffer so the
			// tail reaches the consolidator, then wait for new appends.
			if err := bw.Flush(); err != nil {
				return err
			}
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(s.opts.Poll)
			select {
			case <-idle.C:
			case err := <-errCh:
				return s.sessionFault(err)
			case <-ctx.Done():
				return nil
			}
			continue
		}
		base := s.cursor.Seq() + 1
		payloadBuf = enc.AppendBatch(append(payloadBuf[:0], MsgBatch), base, entries)
		frame := storage.AppendFrame(getBuf(), payloadBuf)
		s.cursor = next
		s.trackSent(sentBatch{base: base, last: next.Seq(), frame: frame, sentAt: time.Now()})
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		s.sentBatches.Add(1)
		s.sentBytes.Add(uint64(len(frame)))
	}
}

// sessionFault folds an ack-reader error into the session result: a
// latched terminal error wins over the transport-level symptom.
func (s *Streamer) sessionFault(err error) error {
	var pe *protocolError
	if errors.As(err, &pe) {
		return err
	}
	return fmt.Errorf("netfed: connection lost: %w", err)
}

// resumeFrom reconciles with the server's resume point: inflight
// batches at or below it are acked (the server already has them),
// later ones are retransmitted through bw in order. The cursor never
// moves backward, so a resume point older than the replayable window
// (inflight + cursor) is terminal.
func (s *Streamer) resumeFrom(resume uint64, bw *bufio.Writer) error {
	s.mu.Lock()
	kept := s.inflight[:0]
	for _, b := range s.inflight {
		if b.last <= resume {
			putBuf(b.frame)
			continue
		}
		kept = append(kept, b)
	}
	s.inflight = kept
	// Contiguity: the replay must start exactly at resume+1.
	replayFrom := s.cursor.Seq()
	if len(kept) > 0 {
		replayFrom = kept[0].base - 1
	}
	retransmit := make([][]byte, 0, len(kept))
	for i := range kept {
		retransmit = append(retransmit, kept[i].frame)
		kept[i].sentAt = time.Now()
	}
	s.mu.Unlock()
	if replayFrom != resume {
		return fmt.Errorf("%w: server at %d, replayable from %d", ErrResumeGap, resume, replayFrom)
	}
	if s.acked.Load() < resume {
		s.acked.Store(resume)
	}
	for _, f := range retransmit {
		if _, err := bw.Write(f); err != nil {
			return err
		}
		s.retransmits.Add(1)
	}
	return nil
}

// trackSent records an unacked batch.
func (s *Streamer) trackSent(b sentBatch) {
	s.mu.Lock()
	s.inflight = append(s.inflight, b)
	s.mu.Unlock()
}

// inflightLen returns the unacked batch count.
func (s *Streamer) inflightLen() int {
	s.mu.Lock()
	n := len(s.inflight)
	s.mu.Unlock()
	return n
}

// onAck releases every inflight batch covered by seq, records their
// ack round-trip as consolidation-lag samples, and wakes the writer.
func (s *Streamer) onAck(seq uint64) {
	now := time.Now()
	s.mu.Lock()
	n := 0
	for n < len(s.inflight) && s.inflight[n].last <= seq {
		s.lag[s.lagNext] = now.Sub(s.inflight[n].sentAt)
		if s.lagNext++; s.lagNext == len(s.lag) {
			s.lagNext = 0
			s.lagFull = true
		}
		putBuf(s.inflight[n].frame)
		n++
	}
	if n > 0 {
		s.inflight = append(s.inflight[:0], s.inflight[n:]...)
	}
	s.mu.Unlock()
	if prev := s.acked.Load(); seq > prev {
		s.acked.Store(seq)
	}
	select {
	case s.ackWake <- struct{}{}:
	default:
	}
}

// report surfaces a recoverable fault.
func (s *Streamer) report(err error) {
	if s.opts.OnError != nil {
		s.opts.OnError(err)
	}
}

// Drain blocks until every entry appended to the log before the call
// has been acknowledged by the consolidator, or ctx ends.
func (s *Streamer) Drain(ctx context.Context) error {
	target := s.log.Seq()
	for s.acked.Load() < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !sleepCtx(ctx, 200*time.Microsecond) {
			return ctx.Err()
		}
	}
	return nil
}

// StreamerStats is a point-in-time transport summary.
type StreamerStats struct {
	Acked       uint64 // highest consolidator-acknowledged seq
	Batches     uint64 // batches sent (incl. retransmits)
	Bytes       uint64 // frame bytes sent
	Reconnects  uint64 // sessions re-established after a fault
	Retransmits uint64 // batches re-sent on resume
	LagP50      time.Duration
	LagP99      time.Duration
	LagSamples  int
}

// Stats snapshots the transport counters and consolidation-lag
// percentiles (ack round-trip per batch: encode, wire, fold, ack).
func (s *Streamer) Stats() StreamerStats {
	st := StreamerStats{
		Acked:       s.acked.Load(),
		Batches:     s.sentBatches.Load(),
		Bytes:       s.sentBytes.Load(),
		Reconnects:  s.reconnects.Load(),
		Retransmits: s.retransmits.Load(),
	}
	s.mu.Lock()
	n := s.lagNext
	if s.lagFull {
		n = len(s.lag)
	}
	samples := append([]time.Duration(nil), s.lag[:n]...)
	s.mu.Unlock()
	st.LagSamples = len(samples)
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		st.LagP50 = samples[len(samples)/2]
		st.LagP99 = samples[len(samples)*99/100]
	}
	return st
}

// sleepCtx sleeps d unless ctx ends first; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
