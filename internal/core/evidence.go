package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// The paper flags the hardest part of refinement in §4.2: "the
// problem of separating violations from useful exceptions in an audit
// trail may require more sophisticated algorithms and even further
// research". Evidence implements the first such step beyond the
// COUNT(DISTINCT user) condition: per-pattern behavioural features a
// reviewer (human or automated) can weigh.

// Evidence summarizes how a pattern manifests in the practice log.
type Evidence struct {
	Rule    policy.Rule
	Support int
	// UserCounts is the per-user occurrence histogram.
	UserCounts map[string]int
	// Concentration is the Herfindahl index of UserCounts in [1/n, 1]:
	// 1 means a single user accounts for all occurrences (snooping
	// shape); 1/n means perfectly even spread across n users
	// (organizational-practice shape).
	Concentration float64
	// OffHoursFraction is the share of occurrences outside 06:00–18:00
	// local clinic time; informal practice follows the working day,
	// snooping often does not.
	OffHoursFraction float64
	// DaysActive counts distinct calendar days with occurrences.
	DaysActive int
}

// Suspicion scores the evidence in [0, 1]; higher means more
// violation-shaped. It combines user concentration and off-hours
// activity, the two separating features the simulator's ground truth
// validates (see evidence_test.go).
func (e Evidence) Suspicion() float64 {
	s := 0.7*e.Concentration + 0.3*e.OffHoursFraction
	if s > 1 {
		s = 1
	}
	return s
}

// String renders the evidence compactly.
func (e Evidence) String() string {
	return fmt.Sprintf("%s: support=%d users=%d concentration=%.2f offhours=%.2f days=%d suspicion=%.2f",
		e.Rule.Compact(), e.Support, len(e.UserCounts), e.Concentration, e.OffHoursFraction, e.DaysActive, e.Suspicion())
}

// GatherEvidence computes the behavioural evidence for a pattern rule
// over the practice entries (the Filter output). Matching uses the
// rule's attributes only, so partial rules (mining correlations) work
// too. A live log serves the same figures from its index groups
// (GroupSuspicionReviewer).
func GatherEvidence(practice []audit.Entry, rule policy.Rule) Evidence {
	ev := Evidence{Rule: rule, UserCounts: make(map[string]int)}
	days := make(map[int32]struct{})
	offHours := 0
	for _, e := range practice {
		if !entryMatchesRule(e, rule) {
			continue
		}
		ev.Support++
		ev.UserCounts[vocab.Norm(e.User)]++
		days[audit.UTCDay(e.Time)] = struct{}{}
		if audit.OffHours(e.Time) {
			offHours++
		}
	}
	finishEvidence(&ev, offHours, len(days))
	return ev
}

// finishEvidence derives the ratio features from the counts gathered
// into ev.Support and ev.UserCounts. The Herfindahl index is Σn² /
// Support² over the per-user counts n: the sum is an exact integer
// (a uint64 holds it while Support < 2³²), so the result does not
// depend on map order and needs no sort.
func finishEvidence(ev *Evidence, offHours, days int) {
	ev.DaysActive = days
	if ev.Support == 0 {
		return
	}
	ev.OffHoursFraction = float64(offHours) / float64(ev.Support)
	var sumSq uint64
	for _, n := range ev.UserCounts {
		sumSq += uint64(n) * uint64(n)
	}
	support := uint64(ev.Support)
	ev.Concentration = float64(sumSq) / float64(support*support)
}

// entryMatchesRule reports whether the entry carries every term of
// the (ground) rule.
func entryMatchesRule(e audit.Entry, rule policy.Rule) bool {
	for _, t := range rule.Terms() {
		v, err := entryAttr(e, t.Attr)
		if err != nil {
			return false
		}
		if vocab.Norm(v) != vocab.Norm(t.Value) {
			return false
		}
	}
	return true
}

// groupTerms holds the normalized term keys of each index group's
// identity, one per attribute, for matching rules against groups.
func groupTerms(groups []audit.Group) [][3]string {
	out := make([][3]string, len(groups))
	for i := range groups {
		g := &groups[i]
		out[i] = [3]string{
			policy.T("data", g.Data).Key(),
			policy.T("purpose", g.Purpose).Key(),
			policy.T("authorized", g.Authorized).Key(),
		}
	}
	return out
}

func groupEvidence(groups []audit.Group, terms [][3]string, rule policy.Rule) Evidence {
	ev := Evidence{Rule: rule, UserCounts: make(map[string]int)}
	offHours := 0
	var days []int32
	for i := range groups {
		g := &groups[i]
		if g.Practice == 0 || !termsMatch(terms[i], rule) {
			continue
		}
		ev.Support += g.Practice
		for u, n := range g.Users {
			ev.UserCounts[vocab.Norm(u)] += n
		}
		offHours += g.OffHours
		days = append(days, g.Days...)
	}
	slices.Sort(days)
	finishEvidence(&ev, offHours, len(slices.Compact(days)))
	return ev
}

// termsMatch reports whether every term of rule is one of the group's
// normalized identity terms.
func termsMatch(group [3]string, rule policy.Rule) bool {
	for _, t := range rule.Terms() {
		k := t.Key()
		if k != group[0] && k != group[1] && k != group[2] {
			return false
		}
	}
	return true
}

// AnnotatePatterns attaches evidence to each pattern, sorted by
// ascending suspicion (safest adoption candidates first).
func AnnotatePatterns(practice []audit.Entry, patterns []Pattern) []Evidence {
	out := make([]Evidence, len(patterns))
	for i, p := range patterns {
		out[i] = GatherEvidence(practice, p.Rule)
	}
	sortEvidence(out)
	return out
}

// AnnotateGroups is AnnotatePatterns served from a log's index groups:
// equal to AnnotatePatterns(Filter(snapshot), patterns) in content and
// order.
func AnnotateGroups(groups []audit.Group, patterns []Pattern) []Evidence {
	terms := groupTerms(groups)
	out := make([]Evidence, len(patterns))
	for i, p := range patterns {
		out[i] = groupEvidence(groups, terms, p.Rule)
	}
	sortEvidence(out)
	return out
}

// sortEvidence orders evidence by ascending suspicion, ties by rule
// key.
func sortEvidence(out []Evidence) {
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].Suspicion(), out[j].Suspicion()
		if math.Abs(si-sj) > 1e-12 {
			return si < sj
		}
		return out[i].Rule.Key() < out[j].Rule.Key()
	})
}

// SuspicionReviewer builds a Reviewer that adopts low-suspicion
// patterns, sends mid-range ones to investigation, and rejects
// clearly violation-shaped ones. practice must be the Filter output
// of the snapshot the session analyses.
func SuspicionReviewer(practice []audit.Entry, investigateAt, rejectAt float64) Reviewer {
	return suspicionReviewer(func(r policy.Rule) Evidence { return GatherEvidence(practice, r) }, investigateAt, rejectAt)
}

// GroupSuspicionReviewer is SuspicionReviewer scored from index groups
// instead of practice entries.
func GroupSuspicionReviewer(groups []audit.Group, investigateAt, rejectAt float64) Reviewer {
	terms := groupTerms(groups)
	return suspicionReviewer(func(r policy.Rule) Evidence { return groupEvidence(groups, terms, r) }, investigateAt, rejectAt)
}

func suspicionReviewer(evidence func(policy.Rule) Evidence, investigateAt, rejectAt float64) Reviewer {
	return ReviewerFunc(func(p Pattern) Decision {
		s := evidence(p.Rule).Suspicion()
		switch {
		case s >= rejectAt:
			return Reject
		case s >= investigateAt:
			return Investigate
		default:
			return Adopt
		}
	})
}
