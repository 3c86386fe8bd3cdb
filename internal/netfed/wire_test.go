package netfed

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/storage"
)

// buildSiteLogs populates nsites logs with n total entries including
// cross-site replicas (duplicates for the consolidator) and outcome
// conflicts, the full federation surface.
func buildSiteLogs(t *testing.T, nsites, n int) []*audit.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	base := time.Unix(1700000000, 0).UTC()
	users := []string{"alice", "bob", "carol", "dave"}
	data := []string{"referral", "psychiatry", "lab results"}
	purposes := []string{"treatment", "research", "billing"}
	roles := []string{"nurse", "physician"}
	logs := make([]*audit.Log, nsites)
	for i := range logs {
		logs[i] = audit.NewLog(fmt.Sprintf("site-%02d", i))
	}
	for j := 0; j < n; j++ {
		st, op := audit.Regular, audit.Allow
		switch rng.Intn(4) {
		case 0:
			st = audit.Exception
		case 1:
			op = audit.Deny
		}
		e := audit.Entry{
			Time:       base.Add(time.Duration(rng.Intn(3600)) * time.Second),
			Op:         op,
			User:       users[rng.Intn(len(users))],
			Data:       data[rng.Intn(len(data))],
			Purpose:    purposes[rng.Intn(len(purposes))],
			Authorized: roles[rng.Intn(len(roles))],
			Status:     st,
		}
		si := rng.Intn(nsites)
		if err := logs[si].Append(e); err != nil {
			t.Fatal(err)
		}
		if nsites > 1 && rng.Intn(10) == 0 {
			// Replica of the same event recorded at a second site.
			if err := logs[(si+1)%nsites].Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if nsites > 1 && rng.Intn(25) == 0 {
			// Conflicting outcome for the same event at a third site.
			c := e
			if c.Op == audit.Allow {
				c.Op = audit.Deny
			} else {
				c.Op = audit.Allow
			}
			if err := logs[(si+2)%nsites].Append(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return logs
}

// jsonl renders entries as the canonical JSONL bytes used for the
// byte-identity comparisons.
func jsonl(t *testing.T, entries []audit.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := audit.WriteJSONL(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamAll runs one streamer per site log against addr and blocks
// until every site's tail is acknowledged.
func streamAll(t *testing.T, logs []*audit.Log, dial func(site string) func() (net.Conn, error), opts StreamerOptions) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errCh := make(chan error, len(logs))
	streamers := make([]*Streamer, 0, len(logs))
	for _, l := range logs {
		o := opts
		o.Dial = dial(l.Site())
		s, err := NewStreamer(l, "", o)
		if err != nil {
			t.Fatal(err)
		}
		streamers = append(streamers, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Run(ctx); err != nil {
				errCh <- err
			}
		}()
	}
	for _, s := range streamers {
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain %s: %v", s.site, err)
		}
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("streamer: %v", err)
	default:
	}
}

func tcpDialer(addr string) func(site string) func() (net.Conn, error) {
	return func(string) func() (net.Conn, error) {
		return func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
}

// startConsolidator serves a consolidator on loopback and returns it
// with its address; cleanup closes it and waits for Serve to return.
func startConsolidator(t *testing.T, opts ConsolidatorOptions) (*Consolidator, string) {
	t.Helper()
	cons, err := NewConsolidator(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- cons.Serve(ln) }()
	t.Cleanup(func() {
		cons.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return cons, ln.Addr().String()
}

// TestWireFederationMatchesInProcessOracle is the tentpole
// differential: shipping every site's log over the binary wire
// protocol and consolidating must reproduce the in-process
// Federation.Consolidate byte for byte — per-site stores, merged
// entries, duplicate counts and conflict reports all identical.
func TestWireFederationMatchesInProcessOracle(t *testing.T) {
	logs := buildSiteLogs(t, 5, 4000)
	cons, addr := startConsolidator(t, ConsolidatorOptions{})
	streamAll(t, logs, tcpDialer(addr), StreamerOptions{BatchEntries: 128, Window: 4})

	for _, l := range logs {
		got := cons.SiteLog(l.Site())
		if got == nil {
			t.Fatalf("site %s missing from consolidator", l.Site())
		}
		if !bytes.Equal(jsonl(t, got.Snapshot()), jsonl(t, l.Snapshot())) {
			t.Fatalf("site %s store differs from origin", l.Site())
		}
	}

	want := audit.NewFederation(logs...).Consolidate()
	got := cons.Consolidate()
	if !bytes.Equal(jsonl(t, got.Entries), jsonl(t, want.Entries)) {
		t.Fatalf("consolidated entries differ: %d vs %d", len(got.Entries), len(want.Entries))
	}
	if got.Duplicates != want.Duplicates || len(got.Conflicts) != len(want.Conflicts) {
		t.Fatalf("dups/conflicts differ: %d/%d vs %d/%d",
			got.Duplicates, len(got.Conflicts), want.Duplicates, len(want.Conflicts))
	}
	st := cons.Stats()
	if st.Sites != len(logs) || st.Entries == 0 || st.Duplicates != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWireFederationLiveAppends exercises the streamer's tailing path:
// entries are appended concurrently from several goroutines while the
// streamers ship them, the export cursor's deferred-merge logic doing
// the seq-contiguity work.
func TestWireFederationLiveAppends(t *testing.T) {
	logs := []*audit.Log{audit.NewLog("site-a"), audit.NewLog("site-b")}
	cons, addr := startConsolidator(t, ConsolidatorOptions{})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var run sync.WaitGroup
	streamers := make([]*Streamer, len(logs))
	for i, l := range logs {
		s, err := NewStreamer(l, "", StreamerOptions{
			Dial:         tcpDialer(addr)(l.Site()),
			BatchEntries: 64,
			Poll:         100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		streamers[i] = s
		run.Add(1)
		go func() {
			defer run.Done()
			if err := s.Run(ctx); err != nil {
				t.Errorf("run: %v", err)
			}
		}()
	}

	const writers, perWriter = 4, 1000
	entries := genEntries(21, writers*perWriter)
	var app sync.WaitGroup
	for w := 0; w < writers; w++ {
		app.Add(1)
		go func(w int) {
			defer app.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				e := entries[i]
				e.Site = "" // let each log stamp its own
				if err := logs[w%len(logs)].Append(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	app.Wait()
	for _, s := range streamers {
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	run.Wait()

	for _, l := range logs {
		if !bytes.Equal(jsonl(t, cons.SiteLog(l.Site()).Snapshot()), jsonl(t, l.Snapshot())) {
			t.Fatalf("site %s store differs after live tailing", l.Site())
		}
	}
	if want, got := audit.NewFederation(logs...).Consolidate(), cons.Consolidate(); !bytes.Equal(jsonl(t, got.Entries), jsonl(t, want.Entries)) {
		t.Fatal("consolidated view differs after live tailing")
	}
}

// flakyConn injects a connection death after a byte budget, tearing
// the stream mid-frame (a partial write is delivered before the
// failure, like a real half-sent TCP segment).
type flakyConn struct {
	net.Conn
	budget int64
}

func (f *flakyConn) Write(b []byte) (int, error) {
	if f.budget <= 0 {
		f.Conn.Close()
		return 0, errors.New("injected connection death")
	}
	if int64(len(b)) > f.budget {
		n, _ := f.Conn.Write(b[:f.budget])
		f.budget = 0
		f.Conn.Close()
		return n, errors.New("injected connection death")
	}
	n, err := f.Conn.Write(b)
	f.budget -= int64(n)
	return n, err
}

// TestStreamerReconnectResume kills the connection mid-batch at a
// ladder of byte budgets — torn frames, torn handshakes, whole lost
// batches — and checks the consolidator store still converges to the
// oracle with no duplicate and no gap.
func TestStreamerReconnectResume(t *testing.T) {
	logs := buildSiteLogs(t, 3, 3000)
	var faults atomic.Uint64
	cons, addr := startConsolidator(t, ConsolidatorOptions{
		OnError: func(error) { faults.Add(1) },
	})

	budgets := []int64{9, 300, 1500, 4000, 9000, 20000}
	dial := func(site string) func() (net.Conn, error) {
		var attempt int
		var mu sync.Mutex
		return func() (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			i := attempt
			attempt++
			mu.Unlock()
			if i < len(budgets) {
				return &flakyConn{Conn: c, budget: budgets[i]}, nil
			}
			return c, nil
		}
	}
	streamAll(t, logs, dial, StreamerOptions{
		BatchEntries:  64,
		Window:        4,
		ReconnectWait: time.Millisecond,
	})

	for _, l := range logs {
		if !bytes.Equal(jsonl(t, cons.SiteLog(l.Site()).Snapshot()), jsonl(t, l.Snapshot())) {
			t.Fatalf("site %s store differs after reconnects", l.Site())
		}
	}
	want := audit.NewFederation(logs...).Consolidate()
	got := cons.Consolidate()
	if !bytes.Equal(jsonl(t, got.Entries), jsonl(t, want.Entries)) {
		t.Fatal("consolidated view differs after reconnects")
	}
	if faults.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
	// Retransmitted batches overlapping the watermark were deduped, not
	// double-folded: per-site stores already compared equal, so any
	// counted duplicates were absorbed correctly. Assert the machinery
	// saw at least one reconnect-shaped event.
	total := uint64(0)
	for _, l := range logs {
		total += l.Seq()
	}
	if st := cons.Stats(); st.Entries != total {
		t.Fatalf("folded entries %d, want %d", st.Entries, total)
	}
}

// TestConsolidatorEpochMatchesStreamSession: a single site shipped
// over the wire and refined by the consolidator's epoch must produce
// the same coverage figures and adopted rules as core.StreamSession
// over the original log — the refinement differential.
func TestConsolidatorEpochMatchesStreamSession(t *testing.T) {
	v := scenario.Vocabulary()
	psWire := scenario.PolicyStore()
	psOracle := scenario.PolicyStore()

	l := audit.NewLog("s")
	if err := l.Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}

	cons, addr := startConsolidator(t, ConsolidatorOptions{
		Refine: &RefineConfig{PS: psWire, Vocab: v},
	})
	streamAll(t, []*audit.Log{l}, tcpDialer(addr), StreamerOptions{BatchEntries: 3})

	got, err := cons.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	ss := core.NewStreamSession(l, psOracle, v, core.Options{})
	want, err := ss.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries != want.Entries || got.Practice != want.Practice ||
		got.CoverageBefore != want.CoverageBefore || got.CoverageAfter != want.CoverageAfter {
		t.Fatalf("epoch figures differ:\n wire   %+v\n oracle %+v", got, want)
	}
	if len(got.Adopted) != len(want.Adopted) {
		t.Fatalf("adopted %d rules, oracle %d", len(got.Adopted), len(want.Adopted))
	}
	for i := range got.Adopted {
		if got.Adopted[i].Key() != want.Adopted[i].Key() {
			t.Fatalf("adopted[%d] = %s, oracle %s", i, got.Adopted[i].Key(), want.Adopted[i].Key())
		}
	}
	// A second epoch over the unchanged store adopts nothing new and
	// keeps coverage.
	again, err := cons.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Adopted) != 0 || again.CoverageBefore != got.CoverageAfter {
		t.Fatalf("second epoch not idempotent: %+v", again)
	}
	if h := cons.History(); len(h) != 2 {
		t.Fatalf("history has %d epochs, want 2", len(h))
	}
}

// TestConsolidatorSuspicionReview: with E11 thresholds configured the
// epoch reviewer scores mined patterns against the cross-site practice
// evidence and the rejected-rule memory suppresses re-surfacing.
func TestConsolidatorSuspicionReview(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	l := audit.NewLog("s")
	if err := l.Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	cons, addr := startConsolidator(t, ConsolidatorOptions{
		Refine: &RefineConfig{PS: ps, Vocab: v, InvestigateAt: 0.0, RejectAt: 0.01},
	})
	streamAll(t, []*audit.Log{l}, tcpDialer(addr), StreamerOptions{})

	round, err := cons.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	// Same thresholds applied directly to the same practice entries.
	reviewer := core.SuspicionReviewer(core.Filter(l.Snapshot()), 0.0, 0.01)
	adopted, rejected, investigating := 0, 0, 0
	for _, p := range round.Patterns {
		switch reviewer.Review(p) {
		case core.Adopt:
			adopted++
		case core.Reject:
			rejected++
		default:
			investigating++
		}
	}
	if len(round.Adopted) != adopted || len(round.Rejected) != rejected || len(round.Investigating) != investigating {
		t.Fatalf("review split %d/%d/%d, direct %d/%d/%d",
			len(round.Adopted), len(round.Rejected), len(round.Investigating),
			adopted, rejected, investigating)
	}
	if rejected > 0 {
		// Rejected rules never resurface.
		again, err := cons.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rejected) != 0 {
			t.Fatalf("second epoch re-rejected %d rules", len(again.Rejected))
		}
	}
}

// TestConsolidatorRefusals: protocol faults are answered with an error
// frame and the connection dropped, without disturbing the store. A
// peer whose first bytes are not a valid frame — one still speaking
// the version-2 framing (uvarint length, type byte, body, CRC32-C
// trailer), or sending a frame with no type byte — is reported and
// dropped without an answer; it must not stall the server.
func TestConsolidatorRefusals(t *testing.T) {
	var mu sync.Mutex
	var reported []error
	cons, addr := startConsolidator(t, ConsolidatorOptions{OnError: func(err error) {
		mu.Lock()
		reported = append(reported, err)
		mu.Unlock()
	}})
	send := func(name string, b []byte) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Write(b); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		return c
	}
	refused := func(name string, payload []byte) {
		t.Helper()
		c := send(name, storage.AppendFrame(nil, payload))
		typ, _, err := nextMsg(storage.NewFrameReader(c, MaxFrame))
		if err != nil || typ != MsgError {
			t.Fatalf("%s: typ %d err %v, want a MsgError refusal", name, typ, err)
		}
	}
	refused("wrong version", appendHello([]byte{MsgHello}, hello{version: 99, site: "x"}))
	refused("previous version", appendHello([]byte{MsgHello}, hello{version: ProtocolVersion - 1, site: "x"}))
	refused("empty site", appendHello([]byte{MsgHello}, hello{version: ProtocolVersion, site: ""}))
	refused("batch before hello", []byte{MsgBatch, 0x01, 0x00})

	dropped := func(name string, b []byte, want error) {
		t.Helper()
		mu.Lock()
		before := len(reported)
		mu.Unlock()
		c := send(name, b)
		n, err := c.Read(make([]byte, 1))
		if n != 0 || err != io.EOF {
			t.Fatalf("%s: read %d bytes, err %v; want the connection closed unanswered", name, n, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(reported) != before+1 || !errors.Is(reported[before], want) {
			t.Fatalf("%s: reported %v, want one %v", name, reported[before:], want)
		}
	}
	for _, site := range []string{"x", "general-hospital", strings.Repeat("s", 300)} {
		body := appendHello([]byte{MsgHello}, hello{version: 2, site: site})
		v2 := binary.AppendUvarint(nil, uint64(len(body)))
		v2 = append(v2, body...)
		v2 = append(v2, storage.AppendFrame(nil, body)[4:8]...) // CRC32-C of body
		dropped(fmt.Sprintf("v2-framed hello from %d-byte site", len(site)), v2, storage.ErrFrameTooLarge)
	}
	dropped("frame without a type byte", storage.AppendFrame(nil, nil), errEmptyFrame)
	if st := cons.Stats(); st.Sites != 0 || st.Entries != 0 {
		t.Fatalf("refused connections touched the store: %+v", st)
	}
}

// TestStreamerResumeGapIsTerminal: a server that lost state below the
// replayable window must terminate the streamer with ErrResumeGap
// rather than silently re-shipping a hole.
func TestStreamerResumeGapIsTerminal(t *testing.T) {
	l := audit.NewLog("site-a")
	if err := l.Append(genEntries(5, 100)...); err != nil {
		t.Fatal(err)
	}
	// The dial target is swappable: session one lands on a consolidator
	// that absorbs everything; session two lands on a fresh one that
	// knows nothing, standing in for a server that lost its state.
	var addr atomic.Value
	_, addr1 := startConsolidator(t, ConsolidatorOptions{})
	addr.Store(addr1)
	s, err := NewStreamer(l, "", StreamerOptions{
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	// The streamer's cursor is fully advanced and its inflight empty;
	// the new server's resume point of 0 is unrecoverable.
	_, addr2 := startConsolidator(t, ConsolidatorOptions{})
	addr.Store(addr2)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s.Run(ctx2); !errors.Is(err, ErrResumeGap) {
		t.Fatalf("err = %v, want ErrResumeGap", err)
	}
}

// TestBatchCodecKeepsZoneOffset: an entry stamped in a non-UTC zone
// crosses the wire with its offset, so the consolidator reads the same
// wall clock (the off-hours evidence feature) and exports the same
// JSON as the site; a UTC entry carries no offset bytes.
func TestBatchCodecKeepsZoneOffset(t *testing.T) {
	e := audit.Entry{
		Time: time.Date(2007, 3, 1, 17, 30, 0, 0, time.UTC).In(time.FixedZone("", 2*3600)),
		Op:   audit.Allow, User: "mark", Data: "referral", Purpose: "registration",
		Authorized: "nurse", Status: audit.Exception,
	}
	utc := e
	utc.Time = e.Time.UTC()
	_, got, err := NewDecoder().DecodeBatch(NewEncoder().AppendBatch(nil, 1, []audit.Entry{e, utc}))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []audit.Entry{e, utc} {
		if got[i].Time.Hour() != want.Time.Hour() {
			t.Errorf("entry %d: decoded hour %d, sent %d", i, got[i].Time.Hour(), want.Time.Hour())
		}
		if g, w := jsonl(t, got[i:i+1]), jsonl(t, []audit.Entry{want}); !bytes.Equal(g, w) {
			t.Errorf("entry %d: decoded JSON %s, sent %s", i, g, w)
		}
	}
	zoned := NewEncoder().AppendBatch(nil, 1, []audit.Entry{e})
	plain := NewEncoder().AppendBatch(nil, 1, []audit.Entry{utc})
	if off := len(binary.AppendVarint(nil, 2*3600)); len(zoned) != len(plain)+off {
		t.Errorf("zoned batch %d bytes, UTC batch %d: want exactly the %d-byte offset varint more", len(zoned), len(plain), off)
	}
	// A zone flag must carry a non-zero offset below a day.
	for _, off := range []int64{0, 24 * 3600, -24 * 3600} {
		b := append([]byte(nil), plain[:4]...) // base, count, time delta (2 bytes)
		b = append(b, plain[4]|flagHasZone)
		b = binary.AppendVarint(b, off)
		b = append(b, plain[5:]...)
		if _, _, err := NewDecoder().DecodeBatch(b); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("zone offset %d: err %v, want ErrBatchCorrupt", off, err)
		}
	}
}

// zonedSiteLog builds one site's log for the suspicion differential:
// practice rows in several zone offsets, raw values that differ only
// in case, and per-site users so no row replicates across sites. The
// fewer users touch a data category, the more concentrated, and so
// the more suspicious, its patterns.
func zonedSiteLog(t *testing.T, site string, seed int64, n int) *audit.Log {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	zones := []*time.Location{time.UTC, time.FixedZone("", 2*3600), time.FixedZone("", -7*3600)}
	pick := func(vs ...string) string { return vs[rng.Intn(len(vs))] }
	base := time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	l := audit.NewLog(site)
	users := map[string][]string{
		"referral":     {"Ann", "ann", "bo", "cy", "di", "ed"},
		"Referral":     {"Ann", "ann", "bo", "cy", "di", "ed"},
		"prescription": {"bo", "cy"},
		"psychiatry":   {"Ann", "ann"},
	}
	for i := 0; i < n; i++ {
		data := pick("referral", "Referral", "psychiatry", "prescription")
		e := audit.Entry{
			Time:       base.Add(time.Duration(rng.Int63n(int64(6 * 24 * time.Hour)))).In(zones[rng.Intn(len(zones))]),
			Op:         audit.Allow,
			User:       site + "-" + pick(users[data]...),
			Data:       data,
			Purpose:    pick("registration", "research", "billing"),
			Authorized: pick("nurse", "clerk", "Clerk"),
			Status:     audit.Exception,
		}
		if rng.Intn(4) == 0 {
			e.Status = audit.Regular
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestConsolidatorSuspicionMatchesSnapshotReviewer: the epoch's
// review, scored from the merged site indexes, decides every pattern
// as core.SuspicionReviewer does over the practice rows of the
// consolidated snapshot, and that snapshot exports the sites' rows
// byte for byte, zone offsets included.
func TestConsolidatorSuspicionMatchesSnapshotReviewer(t *testing.T) {
	v := scenario.Vocabulary()
	logs := []*audit.Log{zonedSiteLog(t, "site-a", 21, 900), zonedSiteLog(t, "site-b", 22, 700)}
	const investigateAt, rejectAt = 0.3, 0.45
	cons, addr := startConsolidator(t, ConsolidatorOptions{
		Refine: &RefineConfig{PS: scenario.PolicyStore(), Vocab: v, InvestigateAt: investigateAt, RejectAt: rejectAt},
	})
	streamAll(t, logs, tcpDialer(addr), StreamerOptions{BatchEntries: 64})

	merged := cons.Consolidate()
	if want := audit.NewFederation(logs...).Consolidate(); !bytes.Equal(jsonl(t, merged.Entries), jsonl(t, want.Entries)) {
		t.Fatal("consolidated export differs from the in-process federation of the site logs")
	}
	round, err := cons.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	decided := make(map[string]core.Decision)
	for _, r := range round.Adopted {
		decided[r.Key()] = core.Adopt
	}
	for _, p := range round.Rejected {
		decided[p.Rule.Key()] = core.Reject
	}
	for _, p := range round.Investigating {
		decided[p.Rule.Key()] = core.Investigate
	}
	oracle := core.SuspicionReviewer(core.Filter(merged.Entries), investigateAt, rejectAt)
	counts := make(map[core.Decision]int)
	for _, p := range round.Patterns {
		want := oracle.Review(p)
		counts[want]++
		if got := decided[p.Rule.Key()]; got != want {
			t.Errorf("%s: epoch decided %v, snapshot reviewer %v", p.Rule.Compact(), got, want)
		}
	}
	if len(counts) < 3 {
		t.Fatalf("thresholds split %d patterns into %v: the differential needs every outcome", len(round.Patterns), counts)
	}
}
