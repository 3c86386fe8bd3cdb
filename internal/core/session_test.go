package core

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/scenario"
)

func TestSessionAdoptLoop(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	s := NewSession(ps, v, Options{})
	round, err := s.Run(scenario.Table1(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(round.CoverageBefore, 0.3) || !almost(round.CoverageAfter, 0.8) {
		t.Errorf("coverage %v -> %v, want 0.3 -> 0.8", round.CoverageBefore, round.CoverageAfter)
	}
	if len(round.Adopted) != 1 || round.Practice != 7 || round.Entries != 10 {
		t.Errorf("round = %+v", round)
	}
	if ps.Len() != 4 {
		t.Errorf("policy store has %d rules, want 4", ps.Len())
	}
	// Second round over the same data discovers nothing new.
	round2, err := s.Run(scenario.Table1(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round2.Patterns) != 0 || !almost(round2.CoverageBefore, 0.8) {
		t.Errorf("round2 = %+v", round2)
	}
	if len(s.History) != 2 {
		t.Errorf("history = %d", len(s.History))
	}
}

func TestSessionRejectIsSticky(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	s := NewSession(ps, v, Options{})
	rejectAll := ReviewerFunc(func(Pattern) Decision { return Reject })
	round, err := s.Run(scenario.Table1(), rejectAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Rejected) != 1 || len(round.Adopted) != 0 {
		t.Fatalf("round = %+v", round)
	}
	if ps.Len() != 3 {
		t.Errorf("rejecting must not grow the store: %d", ps.Len())
	}
	if s.RejectedRules() != 1 {
		t.Errorf("rejected memory = %d", s.RejectedRules())
	}
	// The rejected pattern must not resurface, even with AdoptAll.
	round2, err := s.Run(scenario.Table1(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round2.Patterns) != 0 || len(round2.Adopted) != 0 {
		t.Errorf("rejected pattern resurfaced: %+v", round2)
	}
}

func TestSessionInvestigateResurfaces(t *testing.T) {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	s := NewSession(ps, v, Options{})
	investigate := ReviewerFunc(func(Pattern) Decision { return Investigate })
	round, err := s.Run(scenario.Table1(), investigate)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Investigating) != 1 || almost(round.CoverageAfter, 0.8) {
		t.Errorf("round = %+v", round)
	}
	// Still pending: shows up again next round.
	round2, err := s.Run(scenario.Table1(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(round2.Adopted) != 1 {
		t.Errorf("investigated pattern lost: %+v", round2)
	}
}

func TestSessionNilReviewerAdopts(t *testing.T) {
	v := scenario.Vocabulary()
	s := NewSession(scenario.PolicyStore(), v, Options{})
	round, err := s.Run(scenario.Table1(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Adopted) != 1 {
		t.Errorf("nil reviewer: %+v", round)
	}
}

func TestSessionGrowingLog(t *testing.T) {
	// Coverage improves monotonically as rounds adopt recurring
	// exception patterns from an accumulating log.
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	s := NewSession(ps, v, Options{MinSupport: 3})
	log := audit.NewLog("ward")
	base := scenario.Table1Base
	mk := func(i int, user, data, purpose, role string, st audit.Status) audit.Entry {
		return audit.Entry{Time: base.Add(time.Duration(i) * time.Minute), Op: audit.Allow,
			User: user, Data: data, Purpose: purpose, Authorized: role, Status: st}
	}
	// Epoch 1: lab techs keep reading lab results for registration.
	for i, u := range []string{"a", "b", "c", "a", "b"} {
		if err := log.Append(mk(i, u, "lab_result", "registration", "lab_tech", audit.Exception)); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := s.Run(log.Snapshot(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Adopted) != 1 || r1.CoverageAfter != 1 {
		t.Fatalf("r1 = %+v", r1)
	}
	// Epoch 2: clerks consult insurance for billing.
	for i, u := range []string{"x", "y", "x", "y"} {
		if err := log.Append(mk(100+i, u, "insurance", "billing", "clerk", audit.Exception)); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := s.Run(log.Snapshot(), AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CoverageBefore >= 1 || r2.CoverageAfter != 1 || len(r2.Adopted) != 1 {
		t.Fatalf("r2 = %+v", r2)
	}
	if r2.CoverageBefore < r1.CoverageAfter-0.5 {
		t.Errorf("coverage collapsed between rounds: %v -> %v", r1.CoverageAfter, r2.CoverageBefore)
	}
}

func TestDecisionString(t *testing.T) {
	if Adopt.String() != "adopt" || Reject.String() != "reject" || Investigate.String() != "investigate" {
		t.Error("decision strings wrong")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision renders empty")
	}
}

// TestRecordRoundBoundsHistory: a session keeps between HistoryKeep
// and 2*HistoryKeep of its most recent rounds, each numbered by its
// position among all rounds.
func TestRecordRoundBoundsHistory(t *testing.T) {
	var h []Round
	for i := 0; i < 5*HistoryKeep+7; i++ {
		r := Round{Entries: i}
		h = RecordRound(h, &r)
		if r.Number != i+1 {
			t.Fatalf("round %d numbered %d", i+1, r.Number)
		}
		if len(h) > 2*HistoryKeep {
			t.Fatalf("after %d rounds the history holds %d", i+1, len(h))
		}
		if last := h[len(h)-1].Entries; last != i {
			t.Fatalf("last round %d, want %d", last, i)
		}
		for j := 1; j < len(h); j++ {
			if h[j].Entries != h[j-1].Entries+1 || h[j].Number != h[j-1].Number+1 {
				t.Fatalf("history not the contiguous latest rounds at %d", j)
			}
		}
	}
	if len(h) < HistoryKeep {
		t.Fatalf("history holds %d rounds, want at least %d", len(h), HistoryKeep)
	}
}

// RejectedRules returns the canonical keys of rules the reviewer has
// ruled out, sorted order not guaranteed.
func (s *Session) RejectedRules() int { return len(s.rejected) }
