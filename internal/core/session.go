package core

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// Decision is the human verdict on a discovered pattern. The paper
// ends Prune with "human input is prudent at this stage to determine
// which patterns are actually good practice and which should be
// investigated or terminated".
type Decision int

// Decisions a reviewer may return.
const (
	// Adopt incorporates the pattern into the policy store.
	Adopt Decision = iota
	// Reject discards the pattern (bad practice to be stopped).
	Reject
	// Investigate neither adopts nor discards: the pattern is
	// reported for follow-up and will reappear in later rounds.
	Investigate
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Adopt:
		return "adopt"
	case Reject:
		return "reject"
	case Investigate:
		return "investigate"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Reviewer decides the fate of each useful pattern.
type Reviewer interface {
	Review(Pattern) Decision
}

// ReviewerFunc adapts a function to the Reviewer interface.
type ReviewerFunc func(Pattern) Decision

// Review implements Reviewer.
func (f ReviewerFunc) Review(p Pattern) Decision { return f(p) }

// AdoptAll is a Reviewer that accepts every pattern; used in
// experiments where the simulator guarantees no violations survive
// filtering.
var AdoptAll = ReviewerFunc(func(Pattern) Decision { return Adopt })

// Round records one refinement round.
type Round struct {
	// Number is the round's 1-based position among all the rounds its
	// session has run (RecordRound); it stays exact when older rounds
	// leave the history.
	Number         int
	Started        time.Time
	Entries        int     // audit rows analysed
	Practice       int     // rows surviving Filter
	CoverageBefore float64 // row coverage before adoption
	CoverageAfter  float64 // row coverage after adoption
	Patterns       []Pattern
	Adopted        []policy.Rule
	Rejected       []Pattern
	Investigating  []Pattern
}

// HistoryKeep bounds a session's round history (Session,
// StreamSession, the netfed consolidator): it keeps at least the
// HistoryKeep most recent rounds and at most twice that many.
const HistoryKeep = 512

// RecordRound numbers r after the last round of history and appends
// it, first dropping all but the HistoryKeep most recent rounds once
// the history holds 2*HistoryKeep, so recording costs O(1) amortized
// and the history's memory stays bounded however many rounds run. The
// first kept round's Number tells how many rounds were dropped.
func RecordRound(history []Round, r *Round) []Round {
	r.Number = 1
	if n := len(history); n > 0 {
		r.Number = history[n-1].Number + 1
	}
	if len(history) >= 2*HistoryKeep {
		history = append([]Round(nil), history[len(history)-HistoryKeep:]...)
	}
	return append(history, *r)
}

// Session drives repeated refinement rounds against a policy store,
// mutating the store as patterns are adopted and keeping history.
type Session struct {
	PS      *policy.Policy
	Vocab   *vocab.Vocabulary
	Opts    Options
	History []Round // the most recent rounds (see RecordRound)

	// rejected remembers reviewer-rejected rules so later rounds do
	// not resurface behaviour already ruled bad practice.
	rejected map[string]bool
}

// NewSession starts a refinement session over the given policy store.
// The store is used by reference: adopted rules are added to it.
func NewSession(ps *policy.Policy, v *vocab.Vocabulary, opts Options) *Session {
	return &Session{PS: ps, Vocab: v, Opts: opts, rejected: make(map[string]bool)}
}

// Run performs one refinement round over an audit snapshot: measure
// row coverage, run Refinement (Algorithms 2–6), apply the reviewer's
// decisions, and re-measure.
func (s *Session) Run(entries []audit.Entry, reviewer Reviewer) (Round, error) {
	round := Round{Started: time.Now(), Entries: len(entries)}
	round.Practice = len(Filter(entries))

	before, err := EntryCoverage(s.PS, entries, s.Vocab)
	if err != nil {
		return Round{}, err
	}
	round.CoverageBefore = before.Coverage

	patterns, err := Refinement(s.PS, entries, s.Vocab, s.Opts)
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

	after, err := EntryCoverage(s.PS, entries, s.Vocab)
	if err != nil {
		return Round{}, err
	}
	round.CoverageAfter = after.Coverage

	s.History = RecordRound(s.History, &round)
	return round, nil
}
