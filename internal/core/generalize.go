package core

import (
	"fmt"
	"sort"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// Generalization addresses the paper's first stated benefit of
// refinement — "improving the design of the policies" (§1) — from the
// other direction: refinement adopts *ground* rules one at a time, so
// after a few rounds the policy store accumulates sibling rules that
// a policy author would have written as one composite rule. Generalize
// rewrites the store into an equivalent, smaller policy:
//
//   - lift: if a rule's value can be replaced by its vocabulary
//     parent without enlarging the policy's range (every ground rule
//     the lift adds is already in the range), do so;
//   - prune: drop rules whose entire range is contributed by the
//     remaining rules.
//
// Both steps preserve Range(P) exactly (verified by the property
// tests), so coverage of and by the policy is unchanged.

// GeneralizeResult reports what a generalization pass did.
type GeneralizeResult struct {
	Policy      *policy.Policy // the rewritten policy (new instance)
	Lifted      int            // value-to-parent replacements applied
	Removed     int            // redundant rules dropped
	RulesBefore int
	RulesAfter  int
	RangeSize   int // unchanged range cardinality, as a sanity anchor
}

// Generalize rewrites ps into an equivalent minimal-ish policy over v.
// The input policy is not modified. Every range question is answered
// by the interval algebra (policy.SymRange), so no ground rule is
// enumerated whatever the vocabulary's width.
func Generalize(ps *policy.Policy, v *vocab.Vocabulary) (*GeneralizeResult, error) {
	target := policy.NewSymRange(ps, v)
	res := &GeneralizeResult{RulesBefore: ps.Len(), RangeSize: int(target.Card())}

	work := append([]policy.Rule(nil), ps.Rules()...)

	// Lift values to parents while the range stays within target.
	changed := true
	for changed {
		changed = false
		for i, r := range work {
			lifted, ok, err := liftOnce(r, v, target)
			if err != nil {
				return nil, err
			}
			if ok {
				work[i] = lifted
				res.Lifted++
				changed = true
			}
		}
	}

	// Deduplicate after lifting (sibling rules often lift to the same
	// composite rule).
	dedup := policy.New(ps.Name)
	for _, r := range work {
		dedup.Add(r)
	}
	work = append(work[:0], dedup.Rules()...)

	// Prune rules whose range is covered by the others. Consider
	// bigger contributors last so specific leftovers are dropped in
	// favour of the lifted composites.
	compiled := make(map[string]policy.SymRule, len(work))
	for _, r := range work {
		compiled[r.Key()], _ = policy.CompileRule(r, v)
	}
	sort.SliceStable(work, func(i, j int) bool {
		return compiled[work[i].Key()].Card() > compiled[work[j].Key()].Card()
	})
	var kept []policy.Rule
	for i, r := range work {
		others := policy.CompileRules(append(append([]policy.Rule(nil), kept...), work[i+1:]...), v)
		if others.Covers(compiled[r.Key()]) {
			res.Removed++
			continue
		}
		kept = append(kept, r)
	}

	// Sanity: the rewritten policy has the identical range.
	after := policy.CompileRules(kept, v)
	if after.Card() != target.Card() || !after.Subsumes(target) {
		return nil, fmt.Errorf("core: generalization changed the range (%d -> %d ground rules); this is a bug",
			target.Card(), after.Card())
	}

	res.Policy = policy.FromRules(ps.Name, kept...)
	res.RulesAfter = res.Policy.Len()
	return res, nil
}

// liftOnce tries to replace one term's value with its parent such
// that the lifted rule's range stays inside target. It returns the
// first applicable lift (deterministic order).
func liftOnce(r policy.Rule, v *vocab.Vocabulary, target *policy.SymRange) (policy.Rule, bool, error) {
	for _, t := range r.Terms() {
		h := v.Hierarchy(t.Attr)
		if h == nil {
			continue
		}
		node := h.Node(t.Value)
		if node == nil || node.Parent() == nil {
			continue
		}
		parent := node.Parent().Value()
		terms := make([]policy.Term, 0, r.Len())
		for _, u := range r.Terms() {
			if u == t {
				terms = append(terms, policy.T(u.Attr, parent))
			} else {
				terms = append(terms, u)
			}
		}
		lifted, err := policy.NewRule(terms...)
		if err != nil {
			return policy.Rule{}, false, err
		}
		if sr, _ := policy.CompileRule(lifted, v); target.Covers(sr) {
			return lifted, true, nil
		}
	}
	return policy.Rule{}, false, nil
}
