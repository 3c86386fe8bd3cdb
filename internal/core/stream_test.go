package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/scenario"
)

// patternSig flattens a pattern list into a comparable signature
// including order — the byte-identical bar for the streaming path.
func patternSig(t *testing.T, ps []Pattern) []string {
	t.Helper()
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, fmt.Sprintf("%s|%s|%d|%d|%d|%d",
			p.Rule.Key(), p.Rule.Compact(),
			p.FirstSeen.UnixNano(), p.LastSeen.UnixNano(),
			p.Support, p.DistinctUsers))
	}
	return out
}

// TestPatternsFromGroupsMatchesSQLExtractor is the core differential:
// the index-served analysis must reproduce the SQL extractor
// byte-for-byte on the Table 1 walk-through, across threshold and
// comparator variants.
func TestPatternsFromGroupsMatchesSQLExtractor(t *testing.T) {
	l := audit.NewLog("s")
	if err := l.Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{},
		{MinSupport: 2},
		{MinSupport: 4, StrictGreater: true},
		{MinSupport: 1, MinDistinctUsers: 1},
		{MinSupport: 2, MinDistinctUsers: 3},
	} {
		want, err := ExtractPatterns(Filter(l.Snapshot()), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PatternsFromGroups(l.Groups(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(patternSig(t, got), patternSig(t, want)) {
			t.Fatalf("opts %+v:\n index %v\n sql   %v", opts, patternSig(t, got), patternSig(t, want))
		}
	}
}

// TestPatternsFromGroupsRejectsCustomOptions: non-default analysis
// configurations must refuse index service rather than silently
// diverge.
func TestPatternsFromGroupsRejectsCustomOptions(t *testing.T) {
	if IndexExtractable(Options{Extractor: NativeExtractor{}}) {
		t.Fatal("custom extractor must not be index-servable")
	}
	if IndexExtractable(Options{Attrs: []string{"data", "purpose"}}) {
		t.Fatal("non-default attrs must not be index-servable")
	}
	if IndexExtractable(Options{Attrs: []string{"purpose", "data", "authorized"}}) {
		t.Fatal("reordered attrs must not be index-servable")
	}
	if !IndexExtractable(Options{MinSupport: 3, StrictGreater: true}) {
		t.Fatal("default extractor+attrs must be index-servable")
	}
	if _, err := PatternsFromGroups(nil, Options{Extractor: NativeExtractor{}}); err == nil {
		t.Fatal("expected an error for a custom extractor")
	}
}

// TestGroupCoverageMatchesEntryCoverage: the O(groups) coverage must
// equal the O(entries) coverage before and after adoption.
func TestGroupCoverageMatchesEntryCoverage(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	l := audit.NewLog("s")
	if err := l.Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		want, err := EntryCoverage(ps, l.Snapshot(), v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GroupCoverage(ps, l.Groups(), v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Coverage != want.Coverage || got.Total != want.Total || got.Covered != want.Covered {
			t.Fatalf("%s: group %+v vs entry %+v", stage, got, want)
		}
	}
	check("before adoption")
	if got, err := GroupCoverage(ps, l.Groups(), v); err != nil || got.Coverage != scenario.Table1Coverage {
		t.Fatalf("pre-adoption coverage = %v, err %v, want %v", got.Coverage, err, scenario.Table1Coverage)
	}
	ps.Add(scenario.RefinementPattern())
	check("after adoption")
	if got, err := GroupCoverage(ps, l.Groups(), v); err != nil || got.Coverage != scenario.Table1PostAdoptionCoverage {
		t.Fatalf("post-adoption coverage = %v, err %v, want %v", got.Coverage, err, scenario.Table1PostAdoptionCoverage)
	}
}

// TestStreamSessionMatchesSessionTable1 replays the §5 walk-through
// through the streaming session and checks every figure the
// sequential session produces.
func TestStreamSessionMatchesSessionTable1(t *testing.T) {
	v := scenario.Vocabulary()
	psSeq := scenario.PolicyStore()
	psStream := scenario.PolicyStore()

	l := audit.NewLog("s")
	if err := l.Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}

	seq := NewSession(psSeq, v, Options{})
	seqRound, err := seq.Run(l.Snapshot(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStreamSession(l, psStream, v, Options{})
	streamRound, err := stream.Run(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}

	if streamRound.Entries != seqRound.Entries || streamRound.Practice != seqRound.Practice {
		t.Fatalf("entries/practice: stream %d/%d, seq %d/%d",
			streamRound.Entries, streamRound.Practice, seqRound.Entries, seqRound.Practice)
	}
	if streamRound.CoverageBefore != seqRound.CoverageBefore ||
		streamRound.CoverageAfter != seqRound.CoverageAfter {
		t.Fatalf("coverage: stream %v→%v, seq %v→%v",
			streamRound.CoverageBefore, streamRound.CoverageAfter,
			seqRound.CoverageBefore, seqRound.CoverageAfter)
	}
	if !reflect.DeepEqual(patternSig(t, streamRound.Patterns), patternSig(t, seqRound.Patterns)) {
		t.Fatalf("patterns: stream %v, seq %v",
			patternSig(t, streamRound.Patterns), patternSig(t, seqRound.Patterns))
	}
	if len(streamRound.Adopted) != 1 ||
		streamRound.Adopted[0].Key() != scenario.RefinementPattern().Key() {
		t.Fatalf("adopted: %v", streamRound.Adopted)
	}
	if psStream.Len() != psSeq.Len() {
		t.Fatalf("policy sizes diverge: %d vs %d", psStream.Len(), psSeq.Len())
	}
}

// TestStreamSessionFallbackExtractor drives the delta-cursor path: a
// custom extractor cannot be served from the index, so the session
// accumulates practice entries via Delta — results must still match
// the sequential session using the same extractor.
func TestStreamSessionFallbackExtractor(t *testing.T) {
	v := scenario.Vocabulary()
	psSeq := scenario.PolicyStore()
	psStream := scenario.PolicyStore()
	opts := Options{Extractor: NativeExtractor{}}

	l := audit.NewLog("s")
	seq := NewSession(psSeq, v, opts)
	stream := NewStreamSession(l, psStream, v, opts)

	table := scenario.Table1()
	halves := [][]audit.Entry{table[:5], table[5:]}
	var cumulative []audit.Entry
	for i, half := range halves {
		cumulative = append(cumulative, half...)
		if err := l.Append(half...); err != nil {
			t.Fatal(err)
		}
		seqRound, err := seq.Run(cumulative, AdoptAll)
		if err != nil {
			t.Fatal(err)
		}
		streamRound, err := stream.Run(AdoptAll)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(patternSig(t, streamRound.Patterns), patternSig(t, seqRound.Patterns)) {
			t.Fatalf("half %d: stream %v, seq %v", i,
				patternSig(t, streamRound.Patterns), patternSig(t, seqRound.Patterns))
		}
		if streamRound.CoverageAfter != seqRound.CoverageAfter {
			t.Fatalf("half %d coverage: %v vs %v", i, streamRound.CoverageAfter, seqRound.CoverageAfter)
		}
	}
	// A reset mid-session must resync the cursor without error.
	l.Reset()
	round, err := stream.Run(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if round.Entries != 0 {
		t.Fatalf("after reset: %d entries", round.Entries)
	}
}

// TestStreamSessionRejectSticky mirrors Session's rejected-rule
// memory: a rejected pattern must not resurface in later rounds.
func TestStreamSessionRejectSticky(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	l := audit.NewLog("s")
	if err := l.Append(scenario.Table1()...); err != nil {
		t.Fatal(err)
	}
	sess := NewStreamSession(l, ps, v, Options{})
	rejectAll := ReviewerFunc(func(Pattern) Decision { return Reject })
	r1, err := sess.Run(rejectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rejected) != 1 || sess.RejectedRules() != 1 {
		t.Fatalf("round 1: %+v", r1)
	}
	r2, err := sess.Run(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Patterns) != 0 || len(r2.Adopted) != 0 {
		t.Fatalf("rejected pattern resurfaced: %+v", r2)
	}
}

// TestStreamSessionResyncAfterRecovery: a streaming mining session
// whose log dies and is rebuilt by durable recovery must detect the
// stale delta cursor (the recovered log carries a new epoch), resync,
// and keep producing results identical to the sequential oracle.
func TestStreamSessionResyncAfterRecovery(t *testing.T) {
	v := scenario.Vocabulary()
	psStream := scenario.PolicyStore()
	psSeq := scenario.PolicyStore()
	opts := Options{Extractor: NativeExtractor{}}

	dir := t.TempDir()
	d, _, err := audit.OpenDurable("s", dir, audit.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table := scenario.Table1()
	if err := d.Append(table[:5]...); err != nil {
		t.Fatal(err)
	}
	stream := NewStreamSession(d.Log(), psStream, v, opts)
	seq := NewSession(psSeq, v, opts)
	if _, err := stream.Run(AdoptAll); err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Run(d.Log().Snapshot(), AdoptAll); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	d.Close() // un-checkpointed WAL tail: reopen replays and bumps epoch

	d2, rs, err := audit.OpenDurable("s", dir, audit.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs.WALEntries != 5 {
		t.Fatalf("recovery stats %+v, want 5 WAL entries", rs)
	}
	if err := d2.Append(table[5:]...); err != nil {
		t.Fatal(err)
	}
	stream.Log = d2.Log() // re-attach the session to the recovered log

	streamRound, err := stream.Run(AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	seqRound, err := seq.Run(d2.Log().Snapshot(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(patternSig(t, streamRound.Patterns), patternSig(t, seqRound.Patterns)) {
		t.Fatalf("post-recovery patterns: stream %v, seq %v",
			patternSig(t, streamRound.Patterns), patternSig(t, seqRound.Patterns))
	}
	if streamRound.CoverageAfter != seqRound.CoverageAfter {
		t.Fatalf("post-recovery coverage: %v vs %v", streamRound.CoverageAfter, seqRound.CoverageAfter)
	}
	if psStream.Len() != psSeq.Len() {
		t.Fatalf("policy sizes diverge: %d vs %d", psStream.Len(), psSeq.Len())
	}
}

// RejectedRules returns how many rules the reviewer has ruled out.
func (s *StreamSession) RejectedRules() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rejected)
}
