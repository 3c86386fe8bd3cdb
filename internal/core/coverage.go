// Package core implements the primary contribution of PRIMA (Bhatti &
// Grandison, 2007): policy coverage (Section 3.2, Algorithm 1) and
// policy refinement (Section 4.3, Algorithms 2–6), together with the
// refinement session machinery that closes the feedback loop between
// the real workflow (audit logs) and the ideal workflow (policy
// store).
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// ComputeCoverage is Algorithm 1: the coverage of Px in relation to
// Py is #(Range_Px ∩ Range_Py) / #Range_Py (Definition 9). Coverage
// of anything against an empty policy is defined as 1 (there is
// nothing to cover). Both cardinalities are computed from the
// interval algebra (policy.SymRange) without materializing a single
// ground rule — mandatory at SNOMED/ICD scale, where #Range is
// combinatorial. The error result is always nil.
func ComputeCoverage(px, py *policy.Policy, v *vocab.Vocabulary) (float64, error) {
	sx := policy.SharedSym.Range(px, v) // getRange(Px, V), symbolically
	sy := policy.SharedSym.Range(py, v)
	my := sy.Card()
	if my == 0 {
		return 1, nil
	}
	return float64(sx.IntersectCard(sy)) / float64(my), nil
}

// CompleteCoverage is Definition 10: Px completely covers Py iff
// Range_Px ∩ Range_Py = Range_Py.
func CompleteCoverage(px, py *policy.Policy, v *vocab.Vocabulary) (bool, error) {
	c, err := ComputeCoverage(px, py, v)
	if err != nil {
		return false, err
	}
	return c == 1, nil
}

// NearMiss explains why a policy rule almost covers an uncovered
// ground rule: every attribute matches except one. This reproduces
// the paper's §3.3 narratives ("the policy allows the use of such
// data only for treatment purpose").
type NearMiss struct {
	PolicyRule policy.Rule // the composite rule in Px that nearly applies
	Attr       string      // the attribute that fails
	Allowed    string      // the value the policy rule allows for Attr
	Actual     string      // the value the uncovered rule carries
}

// String renders the near miss as an explanation sentence.
func (n NearMiss) String() string {
	return fmt.Sprintf("policy allows %s=%s where the access used %s=%s (rule %s)",
		n.Attr, n.Allowed, n.Attr, n.Actual, n.PolicyRule)
}

// Gap is one uncovered ground rule of Py with its explanations.
type Gap struct {
	Rule       policy.Rule
	NearMisses []NearMiss
}

// Report is the detailed outcome of a coverage computation.
type Report struct {
	Coverage float64
	RangeX   int           // #Range_Px
	RangeY   int           // #Range_Py
	Overlap  int           // #(Range_Px ∩ Range_Py)
	Matched  []policy.Rule // the intersection, in Range_Py order
	Gaps     []Gap         // uncovered rules of Py with explanations
}

// Coverage computes the coverage of px in relation to py and explains
// every gap.
func Coverage(px, py *policy.Policy, v *vocab.Vocabulary) (*Report, error) {
	ry, err := policy.Shared.Range(py, v, 0)
	if err != nil {
		return nil, fmt.Errorf("core: range of %s: %w", py.Name, err)
	}
	return coverageOf(px, ry, v)
}

// AuditCoverage is Coverage of ps in relation to the audit policy
// P_AL built from a log's index groups (audit.GroupsPolicy): the same
// report as Coverage(ps, audit.ToPolicy("AL", l.Snapshot()), v),
// without the snapshot. P_AL is rebuilt on every call, so its range is
// expanded directly instead of through policy.Shared, where one
// throwaway policy per call would fill the cache and flush the
// long-lived store ranges with it.
func AuditCoverage(ps *policy.Policy, groups []audit.Group, v *vocab.Vocabulary) (*Report, error) {
	al := audit.GroupsPolicy("AL", groups)
	ry, err := policy.NewRange(al, v, 0)
	if err != nil {
		return nil, fmt.Errorf("core: range of %s: %w", al.Name, err)
	}
	return coverageOf(ps, ry, v)
}

// coverageOf measures px against the range ry and explains every gap.
func coverageOf(px *policy.Policy, ry *policy.Range, v *vocab.Vocabulary) (*Report, error) {
	rx, err := policy.Shared.Range(px, v, 0)
	if err != nil {
		return nil, fmt.Errorf("core: range of %s: %w", px.Name, err)
	}
	rep := &Report{RangeX: rx.Len(), RangeY: ry.Len()}
	for _, g := range ry.Rules() {
		if rx.Contains(g) {
			rep.Matched = append(rep.Matched, g)
			continue
		}
		rep.Gaps = append(rep.Gaps, Gap{Rule: g, NearMisses: nearMisses(px, g, v)})
	}
	rep.Overlap = len(rep.Matched)
	if rep.RangeY == 0 {
		rep.Coverage = 1
	} else {
		rep.Coverage = float64(rep.Overlap) / float64(rep.RangeY)
	}
	return rep, nil
}

// nearMisses finds the policy rules of px that cover g on all but one
// attribute.
func nearMisses(px *policy.Policy, g policy.Rule, v *vocab.Vocabulary) []NearMiss {
	var out []NearMiss
	for _, r := range px.Rules() {
		if r.Len() != g.Len() {
			continue
		}
		var failing []string
		ok := true
		for _, t := range r.Terms() {
			gv, present := g.Value(t.Attr)
			if !present {
				ok = false
				break
			}
			if !v.Subsumes(t.Attr, t.Value, gv) {
				failing = append(failing, t.Attr)
			}
		}
		if ok && len(failing) == 1 {
			attr := failing[0]
			allowed, _ := r.Value(attr)
			actual, _ := g.Value(attr)
			out = append(out, NearMiss{PolicyRule: r, Attr: attr, Allowed: allowed, Actual: actual})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PolicyRule.Key() < out[j].PolicyRule.Key() })
	return out
}

// EntryReport is the outcome of row-level coverage over an audit
// snapshot. The paper's §5 walk-through counts each audit row ("the
// ratio of matching rules to total rules ... is now 3/10"), i.e.
// occurrence (multiset) semantics rather than Definition 8's set
// semantics; both are provided and they agree when the snapshot has
// no repeated rows (as in Figure 3).
type EntryReport struct {
	Coverage  float64
	Total     int
	Covered   int
	Uncovered []audit.Entry // rows not covered by the policy store
}

// entryChunkMin is the smallest per-worker chunk worth a goroutine in
// EntryCoverage; below it the fan-out overhead beats the win.
const entryChunkMin = 1024

// EntryCoverage computes row-level coverage of the policy store over
// an audit snapshot. Each row is an interval probe into the store's
// symbolic range (no key allocation, no ground range). Large
// snapshots are chunked across GOMAXPROCS workers and the per-chunk
// results merged in chunk order, so Uncovered keeps the snapshot's row
// order regardless of parallelism. The error result is always nil.
func EntryCoverage(ps *policy.Policy, entries []audit.Entry, v *vocab.Vocabulary) (*EntryReport, error) {
	srg := policy.SharedSym.Range(ps, v)
	covers := func(e *audit.Entry) bool {
		return srg.ContainsTriple(v, e.Data, e.Purpose, e.Authorized)
	}
	rep := &EntryReport{Total: len(entries)}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(entries)/entryChunkMin {
		workers = len(entries) / entryChunkMin
	}
	if workers <= 1 {
		entryCoverChunk(covers, entries, &rep.Covered, &rep.Uncovered)
	} else {
		covered := make([]int, workers)
		uncovered := make([][]audit.Entry, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(entries) / workers
			hi := (w + 1) * len(entries) / workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				entryCoverChunk(covers, entries[lo:hi], &covered[w], &uncovered[w])
			}(w, lo, hi)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			rep.Covered += covered[w]
			rep.Uncovered = append(rep.Uncovered, uncovered[w]...)
		}
	}
	if rep.Total == 0 {
		rep.Coverage = 1
	} else {
		rep.Coverage = float64(rep.Covered) / float64(rep.Total)
	}
	return rep, nil
}

// entryCoverChunk counts the covered entries of one chunk, collecting
// the uncovered rows in order.
func entryCoverChunk(covers func(*audit.Entry) bool, entries []audit.Entry, covered *int, uncovered *[]audit.Entry) {
	for i := range entries {
		if covers(&entries[i]) {
			*covered++
		} else {
			*uncovered = append(*uncovered, entries[i])
		}
	}
}
