package lint

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// This file holds the materializing oracles for PL004–PL006: every
// rule's ground Range (Definition 8) is enumerated and compared as a
// set. TestSymbolicMatchesMaterialized runs the lint pass on them and
// on the symbolic analyses and requires byte-identical reports.

// materializedRules is RulesOpts on the materializing oracles.
func materializedRules(name string, rules []policy.Rule, v *vocab.Vocabulary, opts Options) Report {
	return lintRules(name, rules, v, opts, materializedPairwise, materializedUnreachable)
}

// materializedPairwise is the PL004/PL005 oracle: enumerate every
// rule's ground range and compare by set containment.
func materializedPairwise(rules []policy.Rule, v *vocab.Vocabulary, _ []policy.SymRule, valid []bool, add func(Finding)) {
	ranges := make([]map[string]bool, len(rules))
	for i, r := range rules {
		if !valid[i] {
			continue
		}
		grounds, truncated := r.Groundings(v, policy.DefaultRangeLimit)
		if truncated {
			add(Finding{
				Code: EmptyRange, Rule: i + 1,
				Message: fmt.Sprintf("Range expansion of %s exceeds %d rules; the rule cannot be verified", r, policy.DefaultRangeLimit),
			})
			continue
		}
		set := make(map[string]bool, len(grounds))
		for _, g := range grounds {
			set[g.Key()] = true
		}
		ranges[i] = set
	}
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			a, b := ranges[i], ranges[j]
			if a == nil || b == nil {
				continue
			}
			emitPairwise(rules, i, j, contained(a, b), contained(b, a), add)
		}
	}
}

// materializedUnreachable is the PL006 oracle over enumerated ground
// sets.
func materializedUnreachable(rules []policy.Rule, v *vocab.Vocabulary, add func(Finding)) {
	for _, attr := range v.Attributes() {
		h := v.Hierarchy(attr)
		covered := make(map[string]bool)
		referenced := false
		for _, r := range rules {
			val, ok := r.Value(attr)
			if !ok {
				continue
			}
			referenced = true
			for _, g := range h.GroundSet(val) {
				covered[vocab.Norm(g)] = true
			}
		}
		if !referenced {
			add(Finding{
				Code: UnreachableSubtree, Attr: h.Attr(),
				Message: fmt.Sprintf("no rule constrains attribute %q; its entire hierarchy is unreachable", h.Attr()),
			})
			continue
		}
		var walk func(n *vocab.Node)
		walk = func(n *vocab.Node) {
			if !reaches(h, n.Value(), covered) {
				add(Finding{
					Code: UnreachableSubtree, Attr: h.Attr(), Value: n.Value(),
					Message: fmt.Sprintf("subtree %q of attribute %q is not reachable by any rule's Range", n.Value(), h.Attr()),
				})
				return // report the maximal dead subtree only
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		for _, root := range h.Roots() {
			walk(root)
		}
	}
}

// contained reports a ⊆ b.
func contained(a, b map[string]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// reaches reports whether any ground value under value is covered.
func reaches(h *vocab.Hierarchy, value string, covered map[string]bool) bool {
	for _, g := range h.GroundSet(value) {
		if covered[vocab.Norm(g)] {
			return true
		}
	}
	return false
}
