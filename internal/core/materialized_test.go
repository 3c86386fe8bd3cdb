package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// This file holds the materializing oracles for Algorithm 1 and
// Algorithm 6: every range is enumerated as ground rules with
// policy.NewRange and compared by membership. They are exact
// wherever the ground ranges fit under policy.DefaultRangeLimit; the
// differential tests in symbolic_test.go hold the symbolic production
// paths to them.

// materializedCoverage is ComputeCoverage over ground ranges: the
// intersection is counted by membership against the ground range.
func materializedCoverage(px, py *policy.Policy, v *vocab.Vocabulary) (float64, error) {
	rx, err := policy.NewRange(px, v, 0) // getRange(Px, V)
	if err != nil {
		return 0, fmt.Errorf("core: range of %s: %w", px.Name, err)
	}
	ry, err := policy.NewRange(py, v, 0) // getRange(Py, V)
	if err != nil {
		return 0, fmt.Errorf("core: range of %s: %w", py.Name, err)
	}
	my := ry.Len()
	if my == 0 {
		return 1, nil
	}
	return float64(rx.IntersectCount(ry)) / float64(my), nil
}

// materializedEntryCoverage is EntryCoverage with each row tested by
// canonical key against the ground range, sequentially.
func materializedEntryCoverage(ps *policy.Policy, entries []audit.Entry, v *vocab.Vocabulary) (*EntryReport, error) {
	rg, err := policy.NewRange(ps, v, 0)
	if err != nil {
		return nil, fmt.Errorf("core: range of %s: %w", ps.Name, err)
	}
	rep := &EntryReport{Total: len(entries)}
	for _, e := range entries {
		if rg.ContainsKey(policy.TripleKey(e.Data, e.Purpose, e.Authorized)) {
			rep.Covered++
		} else {
			rep.Uncovered = append(rep.Uncovered, e)
		}
	}
	if rep.Total == 0 {
		rep.Coverage = 1
	} else {
		rep.Coverage = float64(rep.Covered) / float64(rep.Total)
	}
	return rep, nil
}

// materializedPrune is Prune by ground expansion: a pattern is covered
// when every one of its ground rules is in the store's range.
func materializedPrune(patterns []Pattern, ps *policy.Policy, v *vocab.Vocabulary) ([]Pattern, error) {
	rg, err := policy.NewRange(ps, v, 0)
	if err != nil {
		return nil, fmt.Errorf("core: range of %s: %w", ps.Name, err)
	}
	var useful []Pattern
	for _, p := range patterns {
		grounds, truncated := p.Rule.Groundings(v, policy.DefaultRangeLimit)
		if truncated {
			return nil, fmt.Errorf("core: pattern %s expands beyond the range limit", p.Rule)
		}
		covered := true
		for _, g := range grounds {
			if !rg.Contains(g) {
				covered = false
				break
			}
		}
		if !covered {
			useful = append(useful, p)
		}
	}
	return useful, nil
}
