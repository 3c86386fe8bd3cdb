package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// NativeExtractor performs the Algorithm 5 analysis with an in-process
// group-by, bypassing SQL. It is the test-side cross-check on the SQL
// extractor (TestExtractorsAgree) and the custom, index-bypassing
// extractor of the streaming tests.
type NativeExtractor struct{}

// Extract implements PatternExtractor.
func (NativeExtractor) Extract(practice []audit.Entry, opts Options) ([]Pattern, error) {
	opts = opts.withDefaults()
	type acc struct {
		rule  policy.Rule
		count int
		users map[string]bool
		first time.Time
		last  time.Time
	}
	groups := make(map[string]*acc)
	for _, e := range practice {
		terms := make([]policy.Term, len(opts.Attrs))
		for i, attr := range opts.Attrs {
			v, err := entryAttr(e, attr)
			if err != nil {
				return nil, err
			}
			terms[i] = policy.T(attr, v)
		}
		rule, err := policy.NewRule(terms...)
		if err != nil {
			return nil, fmt.Errorf("core: pattern rule: %w", err)
		}
		key := rule.Key()
		a, ok := groups[key]
		if !ok {
			a = &acc{rule: rule, users: make(map[string]bool), first: e.Time, last: e.Time}
			groups[key] = a
		}
		a.count++
		a.users[vocab.Norm(e.User)] = true
		if e.Time.Before(a.first) {
			a.first = e.Time
		}
		if e.Time.After(a.last) {
			a.last = e.Time
		}
	}
	var out []Pattern
	for _, a := range groups {
		okSupport := a.count >= opts.MinSupport
		if opts.StrictGreater {
			okSupport = a.count > opts.MinSupport
		}
		if okSupport && len(a.users) >= opts.MinDistinctUsers {
			out = append(out, Pattern{
				Rule:          a.rule,
				Support:       a.count,
				DistinctUsers: len(a.users),
				FirstSeen:     a.first,
				LastSeen:      a.last,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Rule.Key() < out[j].Rule.Key()
	})
	return out, nil
}
