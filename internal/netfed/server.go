package netfed

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/vocab"
)

// handshakeTimeout bounds how long an accepted connection may stall
// before its hello arrives.
const handshakeTimeout = 10 * time.Second

// RefineConfig enables continuous consolidation-side refinement: each
// epoch merges every site's incremental rule index, measures §5
// coverage, mines Algorithm 4/5 patterns cross-site, and applies the
// E11 suspicion review before adopting rules into the store.
type RefineConfig struct {
	PS    *policy.Policy
	Vocab *vocab.Vocabulary
	Opts  core.Options
	// Interval drives the background epoch loop started by Serve;
	// zero means epochs run only when RunEpoch is called.
	Interval time.Duration
	// InvestigateAt / RejectAt are the E11 suspicion thresholds,
	// scored against the evidence of the merged site indexes. With
	// RejectAt zero the reviewer is AdoptAll (every mined pattern is
	// adopted, the paper's default federation posture).
	InvestigateAt, RejectAt float64
}

// ConsolidatorOptions tunes a Consolidator.
type ConsolidatorOptions struct {
	// MaxConns caps concurrent site connections. Default 4096.
	MaxConns int
	// Window is the ack window granted in the hello ack. Default 8.
	Window int
	// Refine enables continuous refinement epochs; nil disables them
	// (the consolidator is then a pure federated store).
	Refine *RefineConfig
	// OnError observes per-connection faults. May be nil.
	OnError func(error)
}

func (o ConsolidatorOptions) withDefaults() ConsolidatorOptions {
	if o.MaxConns <= 0 {
		o.MaxConns = 4096
	}
	if o.Window <= 0 {
		o.Window = 8
	}
	return o
}

// siteState is one site's fold state: its reconstructed log and the
// highest contiguous remote sequence folded. The mutex serializes
// folds so the watermark check and the append are atomic — several
// connections for the same site (a reconnect racing its predecessor)
// cannot double-fold a batch.
type siteState struct {
	mu   sync.Mutex // lock class netfed.siteState
	log  *audit.Log
	seq  uint64
	dups uint64 // duplicate entries skipped by the watermark
}

// analytics is the consolidation-side refinement state, the cross-site
// counterpart of core.StreamSession: the policy store, the rejected-
// rule memory and epoch history.
type analytics struct {
	mu       sync.Mutex // lock class netfed.analytics
	cfg      RefineConfig
	rejected map[string]bool
	history  []core.Round
}

// Consolidator is the server side of the wire federation: it accepts
// site connections (thousands concurrently — one read goroutine plus
// one ack-writer goroutine per connection, admission-controlled by a
// connection pool), folds delta batches into per-site logs with
// watermark dedup, and optionally drives continuous refinement epochs
// plus cross-site suspicion review over the merged rule index.
type Consolidator struct {
	opts ConsolidatorOptions
	pool *connPool

	mu           sync.Mutex // lock class netfed.Consolidator: sites registry + lifecycle
	sites        map[string]*siteState
	ln           net.Listener
	closed       bool
	epochStarted bool

	refine *analytics // nil when refinement is disabled

	stop chan struct{}
	wg   sync.WaitGroup

	batches atomic.Uint64
	entries atomic.Uint64
	dups    atomic.Uint64
	epochs  atomic.Uint64
}

// NewConsolidator builds a consolidator. With Refine set, the options
// must be servable from the incremental rule index (the default SQL
// analysis) — custom extractors cannot be merged cross-site.
func NewConsolidator(opts ConsolidatorOptions) (*Consolidator, error) {
	opts = opts.withDefaults()
	c := &Consolidator{
		opts:  opts,
		pool:  newConnPool(opts.MaxConns),
		sites: make(map[string]*siteState),
		stop:  make(chan struct{}),
	}
	if r := opts.Refine; r != nil {
		if r.PS == nil || r.Vocab == nil {
			return nil, errors.New("netfed: RefineConfig needs a policy store and vocabulary")
		}
		if !core.IndexExtractable(r.Opts) {
			return nil, errors.New("netfed: refinement options not servable from the rule index")
		}
		c.refine = &analytics{cfg: *r, rejected: make(map[string]bool)}
	}
	return c, nil
}

// Serve accepts site connections on ln until Close. It starts the
// background epoch loop on first call when RefineConfig.Interval is
// set. Returns nil after Close, or the listener's error.
func (c *Consolidator) Serve(ln net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return errPoolClosed
	}
	c.ln = ln
	startEpochs := c.refine != nil && c.refine.cfg.Interval > 0 && !c.epochStarted
	if startEpochs {
		c.epochStarted = true
	}
	c.mu.Unlock()
	if startEpochs {
		c.wg.Add(1)
		go c.epochLoop(c.refine.cfg.Interval)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if err := c.pool.add(conn); err != nil {
			conn.Close()
			if errors.Is(err, errPoolClosed) {
				return nil
			}
			c.report(err)
			continue
		}
		c.wg.Add(1)
		go c.handleConn(conn)
	}
}

// epochLoop runs refinement epochs at the configured cadence until
// Close.
func (c *Consolidator) epochLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := c.RunEpoch(); err != nil {
				c.report(err)
			}
		case <-c.stop:
			return
		}
	}
}

// site returns the fold state for a site, creating it on first
// contact.
func (c *Consolidator) site(name string) *siteState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sites[name]
	if !ok {
		s = &siteState{log: audit.NewLog(name)}
		c.sites[name] = s
	}
	return s
}

// siteLogs snapshots the per-site logs in sorted site order — the
// deterministic federation source order that makes the wire-fed
// Consolidate byte-identical to the in-process oracle built over the
// same sites in the same order.
func (c *Consolidator) siteLogs() []*audit.Log {
	c.mu.Lock()
	names := make([]string, 0, len(c.sites))
	for name := range c.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	logs := make([]*audit.Log, 0, len(names))
	for _, name := range names {
		logs = append(logs, c.sites[name].log)
	}
	c.mu.Unlock()
	return logs
}

// SiteLog returns the reconstructed log for a site (nil if the site
// has never connected).
func (c *Consolidator) SiteLog(name string) *audit.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.sites[name]; ok {
		return s.log
	}
	return nil
}

// ackSender coalesces acks for one connection: the reader posts the
// latest folded sequence and wakes the writer; consecutive folds that
// land while an ack write is in flight collapse into one ack frame
// (the protocol only needs the highest contiguous sequence).
type ackSender struct {
	conn net.Conn
	wake chan struct{} // cap 1
	done chan struct{}

	mu  sync.Mutex // lock class netfed.ackSender
	seq uint64
}

// post records a folded sequence and nudges the writer.
func (a *ackSender) post(seq uint64) {
	a.mu.Lock()
	if seq > a.seq {
		a.seq = seq
	}
	a.mu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default:
	}
}

// run writes coalesced ack frames until done closes. Write errors end
// the session through the reader (the conn is shared), so they only
// stop the writer here.
func (a *ackSender) run(wg *sync.WaitGroup) {
	defer wg.Done()
	var frame []byte
	var payload []byte
	var last uint64
	for {
		select {
		case <-a.wake:
		case <-a.done:
			return
		}
		a.mu.Lock()
		seq := a.seq
		a.mu.Unlock()
		if seq == last {
			continue
		}
		payload = appendAck(append(payload[:0], MsgAck), seq)
		frame = storage.AppendFrame(frame[:0], payload)
		if _, err := a.conn.Write(frame); err != nil {
			return
		}
		last = seq
	}
}

// handleConn owns one site connection: handshake, then a read loop
// folding batches, with the paired ackSender goroutine writing
// coalesced acks back.
func (c *Consolidator) handleConn(conn net.Conn) {
	defer c.wg.Done()
	defer c.pool.remove(conn)
	defer conn.Close()

	fr := storage.NewFrameReader(conn, MaxFrame)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := nextMsg(fr)
	if err != nil {
		c.report(fmt.Errorf("netfed: handshake read: %w", err))
		return
	}
	if typ != MsgHello {
		c.refuse(conn, "expected hello")
		return
	}
	h, err := parseHello(payload)
	if err != nil {
		c.refuse(conn, err.Error())
		return
	}
	if h.version != ProtocolVersion {
		c.refuse(conn, fmt.Sprintf("protocol version %d, want %d", h.version, ProtocolVersion))
		return
	}
	if h.site == "" {
		c.refuse(conn, "empty site name")
		return
	}
	conn.SetReadDeadline(time.Time{})

	site := c.site(h.site)
	site.mu.Lock()
	resume := site.seq
	site.mu.Unlock()
	hb := storage.AppendFrame(nil, appendHelloAck([]byte{MsgHelloAck}, helloAck{
		version: ProtocolVersion,
		resume:  resume,
		window:  uint64(c.opts.Window),
	}))
	if _, err := conn.Write(hb); err != nil {
		c.report(fmt.Errorf("netfed: hello ack write: %w", err))
		return
	}

	acks := &ackSender{conn: conn, wake: make(chan struct{}, 1), done: make(chan struct{})}
	c.wg.Add(1)
	go acks.run(&c.wg)
	defer close(acks.done)

	dec := NewDecoder()
	for {
		typ, payload, err := nextMsg(fr)
		if err != nil {
			if err != io.EOF {
				c.report(fmt.Errorf("netfed: site %s: %w", h.site, err))
			}
			return
		}
		switch typ {
		case MsgBatch:
			base, entries, derr := dec.DecodeBatch(payload)
			if derr != nil {
				c.refuse(conn, derr.Error())
				return
			}
			ackSeq, ferr := c.fold(site, base, entries)
			if ferr != nil {
				c.refuse(conn, ferr.Error())
				return
			}
			c.batches.Add(1)
			acks.post(ackSeq)
		case MsgError:
			c.report(fmt.Errorf("netfed: site %s: %w", h.site, parseErrorMsg(payload)))
			return
		default:
			c.refuse(conn, fmt.Sprintf("unexpected message type %d", typ))
			return
		}
	}
}

// fold applies one batch to a site's store: entries at or below the
// watermark are duplicates from a retransmit and are skipped; the
// fresh suffix is validated and appended in remote sequence order, so
// the reconstructed log assigns the same sequence numbers the site's
// own log did. A batch starting above the watermark+1 is a protocol
// fault (the client replayed past a gap). Returns the new watermark.
func (c *Consolidator) fold(site *siteState, base uint64, entries []audit.Entry) (uint64, error) {
	site.mu.Lock()
	defer site.mu.Unlock()
	if base > site.seq+1 {
		return 0, fmt.Errorf("netfed: sequence gap: batch base %d, store at %d", base, site.seq)
	}
	if last := base + uint64(len(entries)) - 1; len(entries) == 0 || last <= site.seq {
		// Entire batch already folded (pure retransmit).
		site.dups += uint64(len(entries))
		c.dups.Add(uint64(len(entries)))
		return site.seq, nil
	}
	fresh := entries[site.seq+1-base:]
	if skipped := len(entries) - len(fresh); skipped > 0 {
		site.dups += uint64(skipped)
		c.dups.Add(uint64(skipped))
	}
	if err := site.log.Append(fresh...); err != nil {
		return 0, fmt.Errorf("netfed: invalid entry in batch: %w", err)
	}
	site.seq += uint64(len(fresh))
	c.entries.Add(uint64(len(fresh)))
	return site.seq, nil
}

// refuse sends a best-effort error frame and lets the caller close
// the connection.
func (c *Consolidator) refuse(conn net.Conn, msg string) {
	c.report(fmt.Errorf("netfed: refusing connection: %s", msg))
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	conn.Write(storage.AppendFrame(nil, append([]byte{MsgError}, msg...)))
}

// report surfaces a per-connection fault.
func (c *Consolidator) report(err error) {
	if c.opts.OnError != nil {
		c.opts.OnError(err)
	}
}

// RunEpoch performs one cross-site refinement epoch: merge every
// site's incremental rule index, measure coverage, mine and prune
// patterns, apply the suspicion reviewer scored from the merged groups
// (or AdoptAll when no reject threshold is configured), adopt, and
// re-measure — the federated counterpart of core.StreamSession.Run.
func (c *Consolidator) RunEpoch() (core.Round, error) {
	a := c.refine
	if a == nil {
		return core.Round{}, errors.New("netfed: refinement not configured")
	}
	logs := c.siteLogs()
	a.mu.Lock()
	defer a.mu.Unlock()

	round := core.Round{Started: time.Now()}
	groups := audit.MergeGroups(logs...)
	for i := range groups {
		round.Entries += groups[i].Total
		round.Practice += groups[i].Practice
	}
	before, err := core.GroupCoverage(a.cfg.PS, groups, a.cfg.Vocab)
	if err != nil {
		return core.Round{}, err
	}
	round.CoverageBefore = before.Coverage

	patterns, err := core.PatternsFromGroups(groups, a.cfg.Opts)
	if err != nil {
		return core.Round{}, err
	}
	patterns, err = core.Prune(patterns, a.cfg.PS, a.cfg.Vocab)
	if err != nil {
		return core.Round{}, err
	}
	for _, p := range patterns {
		if a.rejected[p.Rule.Key()] {
			continue // previously ruled bad practice cross-site
		}
		round.Patterns = append(round.Patterns, p)
	}

	var reviewer core.Reviewer = core.AdoptAll
	if a.cfg.RejectAt > 0 {
		reviewer = core.GroupSuspicionReviewer(groups, a.cfg.InvestigateAt, a.cfg.RejectAt)
	}
	for _, p := range round.Patterns {
		switch reviewer.Review(p) {
		case core.Adopt:
			a.cfg.PS.Add(p.Rule)
			round.Adopted = append(round.Adopted, p.Rule)
		case core.Reject:
			a.rejected[p.Rule.Key()] = true
			round.Rejected = append(round.Rejected, p)
		default:
			round.Investigating = append(round.Investigating, p)
		}
	}

	after, err := core.GroupCoverage(a.cfg.PS, groups, a.cfg.Vocab)
	if err != nil {
		return core.Round{}, err
	}
	round.CoverageAfter = after.Coverage
	a.history = core.RecordRound(a.history, &round)
	c.epochs.Add(1)
	return round, nil
}

// History returns the most recent refinement epochs, numbered among
// all epochs (see core.RecordRound).
func (c *Consolidator) History() []core.Round {
	if c.refine == nil {
		return nil
	}
	c.refine.mu.Lock()
	defer c.refine.mu.Unlock()
	return append([]core.Round(nil), c.refine.history...)
}

// Consolidate builds the consolidated federated view over every
// site's reconstructed log — audit.Federation in sorted site order,
// so the result is comparable byte for byte with an in-process
// federation over the original logs.
func (c *Consolidator) Consolidate() audit.Result {
	return audit.NewFederation(c.siteLogs()...).Consolidate()
}

// ConsolidatorStats is a point-in-time summary.
type ConsolidatorStats struct {
	Sites      int
	Conns      int
	Batches    uint64
	Entries    uint64
	Duplicates uint64
	Epochs     uint64
	SiteSeqs   map[string]uint64
}

// Stats snapshots the consolidator counters.
func (c *Consolidator) Stats() ConsolidatorStats {
	st := ConsolidatorStats{
		Conns:      c.pool.len(),
		Batches:    c.batches.Load(),
		Entries:    c.entries.Load(),
		Duplicates: c.dups.Load(),
		Epochs:     c.epochs.Load(),
		SiteSeqs:   make(map[string]uint64),
	}
	c.mu.Lock()
	st.Sites = len(c.sites)
	sites := make(map[string]*siteState, len(c.sites))
	for name, s := range c.sites {
		sites[name] = s
	}
	c.mu.Unlock()
	for name, s := range sites {
		s.mu.Lock()
		st.SiteSeqs[name] = s.seq
		s.mu.Unlock()
	}
	return st
}

// Close stops accepting, closes every live connection, stops the
// epoch loop, and waits for all handler goroutines to drain.
func (c *Consolidator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	ln := c.ln
	c.mu.Unlock()
	close(c.stop)
	if ln != nil {
		ln.Close()
	}
	c.pool.closeAll()
	c.wg.Wait()
	return nil
}
