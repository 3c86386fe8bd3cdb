package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// Streaming refinement: the audit log maintains an incremental
// per-rule index (audit.Log.Groups), so one refinement epoch costs
// O(groups) instead of O(entries). The functions here reproduce the
// sequential pipeline byte-for-byte on its default configuration —
// PatternsFromGroups matches the SQL extractor's GROUP BY … HAVING …
// ORDER BY output exactly, and GroupCoverage matches EntryCoverage's
// counts — which is what lets StreamSession substitute for Session
// without changing any Figure 3 / Table 1 result.

// IndexExtractable reports whether the options' analysis can be
// served from the audit log's incremental rule index: the default
// SQL extractor over the default attribute set (data, purpose,
// authorized) in default order. Custom extractors and non-default
// attribute sets fall back to the delta-fed sequential path.
func IndexExtractable(opts Options) bool {
	o := opts.withDefaults()
	if _, ok := o.Extractor.(SQLExtractor); !ok {
		return false
	}
	if len(o.Attrs) != len(DefaultAttrs) {
		return false
	}
	for i, a := range o.Attrs {
		if vocab.Norm(a) != DefaultAttrs[i] {
			return false
		}
	}
	return true
}

// PatternsFromGroups is the Algorithm 4/5 analysis served from the
// incremental index: the HAVING thresholds applied per group and the
// result ordered exactly as the SQL extractor's ORDER BY support
// DESC, data, purpose, authorized (minidb compares text bytewise, so
// raw-value comparisons reproduce it). Returns an error when the
// options cannot be served from the index.
func PatternsFromGroups(groups []audit.Group, opts Options) ([]Pattern, error) {
	opts = opts.withDefaults()
	if !IndexExtractable(opts) {
		return nil, fmt.Errorf("core: options not servable from the rule index (custom extractor or attrs)")
	}
	kept := make([]audit.Group, 0, len(groups))
	for _, g := range groups {
		if g.Practice == 0 {
			continue
		}
		okSupport := g.Practice >= opts.MinSupport
		if opts.StrictGreater {
			okSupport = g.Practice > opts.MinSupport
		}
		if !okSupport || g.PracticeUsers < opts.MinDistinctUsers {
			continue
		}
		kept = append(kept, g)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Practice != kept[j].Practice {
			return kept[i].Practice > kept[j].Practice
		}
		if kept[i].Data != kept[j].Data {
			return kept[i].Data < kept[j].Data
		}
		if kept[i].Purpose != kept[j].Purpose {
			return kept[i].Purpose < kept[j].Purpose
		}
		return kept[i].Authorized < kept[j].Authorized
	})
	out := make([]Pattern, 0, len(kept))
	for _, g := range kept {
		rule, err := g.Rule()
		if err != nil {
			return nil, fmt.Errorf("core: pattern rule: %w", err)
		}
		out = append(out, Pattern{
			Rule:          rule,
			Support:       g.Practice,
			DistinctUsers: g.PracticeUsers,
			FirstSeen:     g.First,
			LastSeen:      g.Last,
		})
	}
	return out, nil
}

// GroupCoverage computes §5 row-level coverage from the incremental
// index in O(groups): every group's rows share one (data, purpose,
// authorized) triple, so membership is tested once per group — the
// same interval probe EntryCoverage makes per row — and weighted by
// the group size. Counts equal EntryCoverage over the same entries;
// the Uncovered row list is not materialized (use EntryCoverage when
// the offending rows themselves are needed). The error result is
// always nil.
func GroupCoverage(ps *policy.Policy, groups []audit.Group, v *vocab.Vocabulary) (*EntryReport, error) {
	srg := policy.SharedSym.Range(ps, v)
	rep := &EntryReport{}
	for i := range groups {
		g := &groups[i]
		rep.Total += g.Total
		if srg.ContainsTriple(v, g.Data, g.Purpose, g.Authorized) {
			rep.Covered += g.Total
		}
	}
	if rep.Total == 0 {
		rep.Coverage = 1
	} else {
		rep.Coverage = float64(rep.Covered) / float64(rep.Total)
	}
	return rep, nil
}

// IncrementalState is persistent per-session extractor state for
// streaming refinement: each epoch folds only the newly appended
// practice rows and extracts from the accumulated state, so epoch
// cost does not grow with log history. Implementations must produce
// exactly what their batch Extract would over the concatenation of
// every Fold since the last Reset.
type IncrementalState interface {
	// Fold absorbs newly appended practice entries (already filtered
	// to exception-based allows, in append order).
	Fold(practice []audit.Entry) error
	// Extract mines everything folded so far.
	Extract() ([]Pattern, error)
	// Reset discards the accumulated state; the feeding cursor was
	// invalidated by a structural log change and the next Fold
	// restarts from the beginning.
	Reset()
}

// IncrementalExtractor is implemented by pattern extractors that can
// maintain IncrementalState across epochs. StreamSession recognizes
// it and feeds the state from the log's delta cursor instead of
// re-running the batch extractor over re-accumulated history.
type IncrementalExtractor interface {
	PatternExtractor
	NewIncremental(opts Options) (IncrementalState, error)
}

// LogExtractor is implemented by pattern extractors that can serve a
// one-shot extraction straight from the audit log's incremental
// per-group index, without a materialized snapshot. served is false
// when the options cannot be index-fed (e.g. non-default attributes)
// and the caller must fall back to the snapshot pipeline.
type LogExtractor interface {
	PatternExtractor
	ExtractLog(l *audit.Log, opts Options) (patterns []Pattern, served bool, err error)
}

// RefineFromLog is Algorithm 2 over a live audit log: analysis from
// the incremental index when the options allow it — either directly
// (the default SQL analysis is the index's GROUP BY) or through an
// index-capable extractor — otherwise the sequential pipeline over a
// snapshot.
func RefineFromLog(ps *policy.Policy, l *audit.Log, v *vocab.Vocabulary, opts Options) ([]Pattern, error) {
	if IndexExtractable(opts) {
		patterns, err := PatternsFromGroups(l.Groups(), opts)
		if err != nil {
			return nil, err
		}
		return Prune(patterns, ps, v)
	}
	o := opts.withDefaults()
	if le, ok := o.Extractor.(LogExtractor); ok {
		if err := checkAttrs(o.Attrs); err != nil {
			return nil, err
		}
		patterns, served, err := le.ExtractLog(l, o)
		if err != nil {
			return nil, err
		}
		if served {
			return Prune(patterns, ps, v)
		}
	}
	return Refinement(ps, l.Snapshot(), v, opts)
}

// StreamSession drives repeated refinement rounds against a live
// audit log, the streaming counterpart of Session: coverage and
// pattern extraction are served from the log's incremental index
// (O(groups) per round), and when a custom extractor forces the
// sequential analysis, the practice entries are accumulated through
// an epoch cursor so each round only reads the appends since the
// last one (O(delta)).
//
// Rounds on one session run one at a time: Run holds the session lock
// for the whole round, since each round consumes the log from where
// the last one stopped. Rounds returns a copy of the history that is
// safe to read while rounds run; History itself is for single-threaded
// callers.
type StreamSession struct {
	Log     *audit.Log
	PS      *policy.Policy
	Vocab   *vocab.Vocabulary
	Opts    Options
	History []Round // the most recent rounds (see RecordRound)

	// mu serializes rounds and guards History and rejected.
	mu sync.Mutex

	// rejected remembers reviewer-rejected rules so later rounds do
	// not resurface behaviour already ruled bad practice.
	rejected map[string]bool

	// cursor/practice feed the custom-extractor paths: cursor marks
	// how far the log has been consumed. Incremental extractors fold
	// each round's delta into inc; for plain batch extractors,
	// practice re-accumulates the Filter-surviving entries instead.
	cursor   audit.Cursor
	practice []audit.Entry
	inc      IncrementalState
}

// NewStreamSession starts a streaming refinement session over the
// given log and policy store. The store is used by reference:
// adopted rules are added to it.
func NewStreamSession(l *audit.Log, ps *policy.Policy, v *vocab.Vocabulary, opts Options) *StreamSession {
	return &StreamSession{Log: l, PS: ps, Vocab: v, Opts: opts, rejected: make(map[string]bool)}
}

// Run performs one refinement round over the log's current contents:
// measure row coverage, extract and prune patterns, apply the
// reviewer's decisions, and re-measure — the same protocol as
// Session.Run, fed by the incremental index instead of a snapshot.
// The reviewer runs under the session lock, so it must not start a
// round on the same session.
func (s *StreamSession) Run(reviewer Reviewer) (Round, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	round := Round{Started: time.Now()}
	groups := s.Log.Groups()
	for i := range groups {
		round.Entries += groups[i].Total
		round.Practice += groups[i].Practice
	}

	before, err := GroupCoverage(s.PS, groups, s.Vocab)
	if err != nil {
		return Round{}, err
	}
	round.CoverageBefore = before.Coverage

	var patterns []Pattern
	o := s.Opts.withDefaults()
	ix, incremental := o.Extractor.(IncrementalExtractor)
	switch {
	case IndexExtractable(s.Opts):
		patterns, err = PatternsFromGroups(groups, s.Opts)
	case incremental:
		// Index-servable mining path: persistent extractor state fed
		// by the delta cursor — each epoch folds only the rows
		// appended since the last one.
		if s.inc == nil {
			if err = checkAttrs(o.Attrs); err != nil {
				return Round{}, err
			}
			if s.inc, err = ix.NewIncremental(o); err != nil {
				return Round{}, err
			}
		}
		var delta []audit.Entry
		var resync bool
		delta, s.cursor, resync = s.Log.Delta(s.cursor)
		if resync {
			s.inc.Reset()
		}
		if err = s.inc.Fold(Filter(delta)); err == nil {
			patterns, err = s.inc.Extract()
		}
	default:
		var delta []audit.Entry
		var resync bool
		delta, s.cursor, resync = s.Log.Delta(s.cursor)
		if resync {
			s.practice = s.practice[:0]
		}
		for _, e := range delta {
			if e.Status == audit.Exception && e.Op == audit.Allow {
				s.practice = append(s.practice, e)
			}
		}
		patterns, err = ExtractPatterns(s.practice, s.Opts)
	}
	if err != nil {
		return Round{}, err
	}
	patterns, err = Prune(patterns, s.PS, s.Vocab)
	if err != nil {
		return Round{}, err
	}
	for _, p := range patterns {
		if s.rejected[p.Rule.Key()] {
			continue // previously ruled bad practice
		}
		round.Patterns = append(round.Patterns, p)
	}

	if reviewer == nil {
		reviewer = AdoptAll
	}
	for _, p := range round.Patterns {
		switch reviewer.Review(p) {
		case Adopt:
			s.PS.Add(p.Rule)
			round.Adopted = append(round.Adopted, p.Rule)
		case Reject:
			s.rejected[p.Rule.Key()] = true
			round.Rejected = append(round.Rejected, p)
		default:
			round.Investigating = append(round.Investigating, p)
		}
	}

	after, err := GroupCoverage(s.PS, groups, s.Vocab)
	if err != nil {
		return Round{}, err
	}
	round.CoverageAfter = after.Coverage

	s.History = RecordRound(s.History, &round)
	return round, nil
}

// Rounds returns a copy of the most recent rounds, oldest first.
func (s *StreamSession) Rounds() []Round {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Round(nil), s.History...)
}
