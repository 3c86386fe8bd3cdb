// Package report renders PRIMA's analysis artifacts — coverage
// reports, refinement rounds, audit statistics — as a Markdown
// document for the stakeholders the paper puts at the top of its
// architecture diagram: the privacy officer reviewing what the system
// learned and what still bypasses policy.
package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
)

// Input bundles everything a report can include; nil/empty sections
// are omitted.
type Input struct {
	Title     string
	Generated time.Time
	// Coverage is the Algorithm 1 report against the audit-log policy.
	Coverage *core.Report
	// EntryCoverage is row-level coverage over the same snapshot.
	EntryCoverage *core.EntryReport
	// Rounds are refinement rounds, oldest first: a session's history,
	// which may have dropped its oldest rounds (core.RecordRound).
	Rounds []core.Round
	// Entries is the audit snapshot used for the statistics section.
	Entries []audit.Entry
}

// Write renders the report.
func Write(w io.Writer, in Input) error {
	bw := &errWriter{w: w}
	title := in.Title
	if title == "" {
		title = "PRIMA privacy report"
	}
	bw.printf("# %s\n\n", title)
	if !in.Generated.IsZero() {
		bw.printf("Generated: %s\n\n", in.Generated.UTC().Format(time.RFC3339))
	}

	if in.EntryCoverage != nil || in.Coverage != nil {
		bw.printf("## Policy coverage\n\n")
		if in.EntryCoverage != nil {
			ec := in.EntryCoverage
			bw.printf("- Row coverage (each audited access): **%.1f%%** (%d of %d accesses covered)\n",
				ec.Coverage*100, ec.Covered, ec.Total)
		}
		if in.Coverage != nil {
			c := in.Coverage
			bw.printf("- Rule coverage (Definition 9): **%.1f%%** (%d of %d distinct ground rules)\n",
				c.Coverage*100, c.Overlap, c.RangeY)
		}
		bw.printf("\n")
		if in.Coverage != nil && len(in.Coverage.Gaps) > 0 {
			bw.printf("### Uncovered access patterns\n\n")
			for _, g := range in.Coverage.Gaps {
				bw.printf("- `%s`\n", g.Rule.Compact())
				for _, nm := range g.NearMisses {
					bw.printf("  - near miss: %s\n", nm)
				}
			}
			bw.printf("\n")
		}
	}

	if len(in.Rounds) > 0 {
		bw.printf("## Refinement history\n\n")
		if n := in.Rounds[0].Number; n > 1 {
			bw.printf("Rounds 1 to %d are omitted; the history keeps the most recent rounds.\n\n", n-1)
		}
		bw.printf("| round | analysed | practice | coverage before | coverage after | adopted | rejected | investigating |\n")
		bw.printf("|---|---|---|---|---|---|---|---|\n")
		for i, r := range in.Rounds {
			num := r.Number
			if num == 0 {
				num = i + 1 // a round recorded outside a session
			}
			bw.printf("| %d | %d | %d | %.1f%% | %.1f%% | %d | %d | %d |\n",
				num, r.Entries, r.Practice,
				r.CoverageBefore*100, r.CoverageAfter*100,
				len(r.Adopted), len(r.Rejected), len(r.Investigating))
		}
		bw.printf("\n")
		last := in.Rounds[len(in.Rounds)-1]
		if len(last.Adopted) > 0 {
			bw.printf("### Rules adopted in the last round\n\n")
			for _, rule := range last.Adopted {
				bw.printf("- `%s`\n", rule.Compact())
			}
			bw.printf("\n")
		}
		if len(last.Investigating) > 0 {
			bw.printf("### Patterns pending investigation\n\n")
			for _, p := range last.Investigating {
				bw.printf("- `%s` — support %d, %d distinct users (%s to %s)\n",
					p.Rule.Compact(), p.Support, p.DistinctUsers,
					p.FirstSeen.UTC().Format("2006-01-02"), p.LastSeen.UTC().Format("2006-01-02"))
			}
			bw.printf("\n")
		}
	}

	if len(in.Entries) > 0 {
		st := audit.Summarize(in.Entries)
		bw.printf("## Audit statistics\n\n")
		bw.printf("- Window: %s to %s\n",
			st.First.UTC().Format("2006-01-02"), st.Last.UTC().Format("2006-01-02"))
		bw.printf("- Accesses: %d (%d allowed, %d denied)\n", st.Total, st.Allowed, st.Denied)
		pct := 0.0
		if st.Total > 0 {
			pct = float64(st.Exceptions) / float64(st.Total) * 100
		}
		bw.printf("- Exception-based (break-the-glass): %d (%.1f%%)\n", st.Exceptions, pct)
		bw.printf("- Distinct users: %d\n\n", st.Users)

		if rates := audit.ExceptionRateByRole(in.Entries); len(rates) > 0 {
			bw.printf("### Break-the-glass pressure by role\n\n")
			for _, role := range sortedKeys(rates) {
				bw.printf("- %s: %.1f%%\n", role, rates[role]*100)
			}
			bw.printf("\n")
		}
		if top := audit.TopData(in.Entries, 5); len(top) > 0 {
			bw.printf("### Most accessed data categories\n\n")
			for _, c := range top {
				bw.printf("- %s (%d)\n", c.Value, c.N)
			}
			bw.printf("\n")
		}
	}
	return bw.err
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// errWriter folds the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
