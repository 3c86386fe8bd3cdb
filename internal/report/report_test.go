package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

func fullInput(t *testing.T) Input {
	t.Helper()
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	entries := scenario.Table1()
	cov, err := core.Coverage(ps, scenario.Figure3AuditPolicy(), v)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := core.EntryCoverage(ps, entries, v)
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(ps.Clone(), v, core.Options{})
	round, err := sess.Run(entries, core.AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Title:         "St. Elsewhere monthly privacy report",
		Generated:     time.Date(2007, 4, 1, 0, 0, 0, 0, time.UTC),
		Coverage:      cov,
		EntryCoverage: ec,
		Rounds:        []core.Round{round},
		Entries:       entries,
	}
}

func TestRenderFullReport(t *testing.T) {
	out, err := Render(fullInput(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# St. Elsewhere monthly privacy report",
		"Row coverage",
		"**30.0%** (3 of 10 accesses covered)",
		"Rule coverage",
		"**50.0%** (3 of 6 distinct ground rules)",
		"Uncovered access patterns",
		"near miss",
		"Refinement history",
		"| 1 | 10 | 7 | 30.0% | 80.0% | 1 | 0 | 0 |",
		"Rules adopted in the last round",
		"data=Referral",
		"Audit statistics",
		"Exception-based (break-the-glass): 7 (70.0%)",
		"Break-the-glass pressure by role",
		"Most accessed data categories",
		"referral (6)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n----\n%s", want, out)
		}
	}
}

func TestRenderInvestigatingSection(t *testing.T) {
	v := scenario.Vocabulary()
	sess := core.NewSession(scenario.PolicyStore(), v, core.Options{})
	round, err := sess.Run(scenario.Table1(), core.ReviewerFunc(func(core.Pattern) core.Decision {
		return core.Investigate
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Render(Input{Rounds: []core.Round{round}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Patterns pending investigation") {
		t.Errorf("investigation section missing:\n%s", out)
	}
	if !strings.Contains(out, "support 5, 3 distinct users") {
		t.Errorf("evidence missing:\n%s", out)
	}
}

func TestRenderEmptyInput(t *testing.T) {
	out, err := Render(Input{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# PRIMA privacy report") {
		t.Errorf("default title missing:\n%s", out)
	}
	for _, absent := range []string{"Policy coverage", "Refinement history", "Audit statistics"} {
		if strings.Contains(out, absent) {
			t.Errorf("empty report contains %q", absent)
		}
	}
}

func TestWriteErrorPropagates(t *testing.T) {
	if err := Write(failingWriter{}, fullInput(t)); err == nil {
		t.Error("write error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

// TestRenderTrimmedHistory: once a session's history has dropped its
// oldest rounds, the report numbers the kept rounds by their position
// in the session and says that the earlier rounds are omitted.
func TestRenderTrimmedHistory(t *testing.T) {
	var history []core.Round
	total := 2*core.HistoryKeep + 5
	for i := 0; i < total; i++ {
		r := core.Round{Entries: i}
		history = core.RecordRound(history, &r)
	}
	out, err := Render(Input{Rounds: history})
	if err != nil {
		t.Fatal(err)
	}
	first := history[0].Number
	if first <= 1 {
		t.Fatalf("history of %d rounds kept its first round", total)
	}
	for _, want := range []string{
		fmt.Sprintf("Rounds 1 to %d are omitted", first-1),
		fmt.Sprintf("| %d | %d |", first, first-1),
		fmt.Sprintf("| %d | %d |", total, total-1),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if strings.Contains(out, "| 1 | 0 |") {
		t.Error("report labels a kept round as round 1")
	}

	full, err := Render(fullInput(t))
	if err != nil || strings.Contains(full, "omitted") || !strings.Contains(full, "| 1 |") {
		t.Fatalf("a one-round session's report: %v\n%s", err, full)
	}
}

// Render is Write into a string.
func Render(in Input) (string, error) {
	var sb strings.Builder
	if err := Write(&sb, in); err != nil {
		return "", err
	}
	return sb.String(), nil
}
