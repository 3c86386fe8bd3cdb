// Package lint statically analyzes a policy store against a
// vocabulary — the domain layer of the repo's static-analysis pass.
// Where cmd/prima-vet checks the code that manipulates policies, this
// package checks the policy artifacts themselves, before enforcement
// ever runs: a rule referencing an attribute the vocabulary does not
// know can never match an audit entry, a rule whose Range (Definition
// 8) is contained in another's is dead weight the refinement loop
// will re-derive, and a vocabulary subtree no rule can reach is a
// coverage hole waiting for Algorithm 1 to report it in production.
//
// The range comparisons (PL003–PL006) run on the symbolic interval
// algebra (policy.SymRule): rule containment is a cardinality
// comparison over per-attribute intervals, so the pass scales to
// SNOMED/ICD-size vocabularies where a single composite rule's ground
// Range is beyond materializing. A materializing oracle in the
// package's test code emits identical findings wherever it can run.
//
// Finding codes:
//
//	PL001 unknown-attribute   a rule term uses an attribute absent from the vocabulary
//	PL002 unknown-value       a rule term uses a value absent from its attribute's hierarchy
//	PL003 empty-range         a rule has no computable Range (zero rule, or expansion over limit)
//	PL004 duplicate-rule      two rules have identical Ranges (Definitions 6/8)
//	PL005 subsumed-rule       a rule's Range is strictly contained in another's (Definition 8)
//	PL006 unreachable-subtree a vocabulary subtree no rule's Range touches
//	PL007 conflicting-rules   rules with different attribute signatures overlap on every shared attribute
//	PL008 over-broad-rule     a term's ground set exceeds a configurable fraction of its attribute's ground space
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// Finding codes.
const (
	UnknownAttribute   = "PL001"
	UnknownValue       = "PL002"
	EmptyRange         = "PL003"
	DuplicateRule      = "PL004"
	SubsumedRule       = "PL005"
	UnreachableSubtree = "PL006"
	ConflictingRules   = "PL007"
	OverBroadRule      = "PL008"
)

// DefaultOverBroadFraction is the PL008 threshold when Options leaves
// it unset: a term reaching more than 90% of its attribute's ground
// space is indistinguishable from no constraint at all.
const DefaultOverBroadFraction = 0.9

// Options parameterizes a lint pass.
type Options struct {
	// OverBroadFraction is the PL008 threshold in (0, 1]: a rule term
	// is over-broad when its ground set covers strictly more than this
	// fraction of the attribute's ground space (and more than one
	// value). Zero selects DefaultOverBroadFraction; a negative value
	// disables PL008.
	OverBroadFraction float64
}

func (o Options) withDefaults() Options {
	if o.OverBroadFraction == 0 {
		o.OverBroadFraction = DefaultOverBroadFraction
	}
	return o
}

// Finding is one diagnostic about a policy/vocabulary pair.
type Finding struct {
	Code string `json:"code"`
	// Rule is the 1-based index of the offending rule within the
	// analyzed policy; 0 for vocabulary-level findings (PL006).
	Rule    int    `json:"rule,omitempty"`
	Attr    string `json:"attr,omitempty"`
	Value   string `json:"value,omitempty"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	if f.Rule > 0 {
		return fmt.Sprintf("%s rule %d: %s", f.Code, f.Rule, f.Message)
	}
	return fmt.Sprintf("%s: %s", f.Code, f.Message)
}

// Report is the outcome of linting one policy against one vocabulary.
type Report struct {
	Policy   string    `json:"policy"`
	Rules    int       `json:"rules"`
	Findings []Finding `json:"findings,omitempty"`
}

// Clean reports whether the lint pass produced no findings.
func (r Report) Clean() bool { return len(r.Findings) == 0 }

// WriteText renders the report one finding per line.
func (r Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "policy %s: %d rule(s), %d finding(s)\n", r.Policy, r.Rules, len(r.Findings)); err != nil {
		return err
	}
	for _, f := range r.Findings {
		if _, err := fmt.Fprintf(w, "  %s\n", f); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the report as one JSON document.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Policy lints p against v with default options.
func Policy(p *policy.Policy, v *vocab.Vocabulary) Report {
	return RulesOpts(p.Name, p.Rules(), v, Options{})
}

// PolicyOpts lints p against v.
func PolicyOpts(p *policy.Policy, v *vocab.Vocabulary, opts Options) Report {
	return RulesOpts(p.Name, p.Rules(), v, opts)
}

// RulesOpts lints a bare rule list against v.
func RulesOpts(name string, rules []policy.Rule, v *vocab.Vocabulary, opts Options) Report {
	return lintRules(name, rules, v, opts, symbolicPairwise, symbolicUnreachable)
}

// pairwiseFunc emits the PL004/PL005 findings (and any PL003 it
// discovers) for every pair of valid rules.
type pairwiseFunc func(rules []policy.Rule, v *vocab.Vocabulary, syms []policy.SymRule, valid []bool, add func(Finding))

// unreachableFunc emits the PL006 findings.
type unreachableFunc func(rules []policy.Rule, v *vocab.Vocabulary, add func(Finding))

// lintRules is the lint pass with its two range analyses supplied by
// the caller: RulesOpts passes the symbolic ones, the differential
// tests pass the materializing oracles.
func lintRules(name string, rules []policy.Rule, v *vocab.Vocabulary, opts Options, pairwise pairwiseFunc, unreachable unreachableFunc) Report {
	opts = opts.withDefaults()
	rep := Report{Policy: name, Rules: len(rules)}
	add := func(f Finding) { rep.Findings = append(rep.Findings, f) }

	// Per-rule vocabulary checks (PL001, PL002) plus symbolic
	// compilation; every downstream analysis consumes the compiled
	// boxes.
	syms := make([]policy.SymRule, len(rules))
	valid := make([]bool, len(rules))
	for i, r := range rules {
		if r.IsZero() {
			add(Finding{
				Code: EmptyRange, Rule: i + 1,
				Message: "rule has no terms; its Range is empty and it can never cover an access",
			})
			continue
		}
		for _, t := range r.Terms() {
			h := v.Hierarchy(t.Attr)
			if h == nil {
				add(Finding{
					Code: UnknownAttribute, Rule: i + 1, Attr: t.Attr,
					Message: fmt.Sprintf("term %s uses attribute %q, which is not in the vocabulary", t, t.Attr),
				})
				continue
			}
			if !h.Contains(t.Value) {
				add(Finding{
					Code: UnknownValue, Rule: i + 1, Attr: t.Attr, Value: t.Value,
					Message: fmt.Sprintf("term %s uses value %q, which is not in the %q hierarchy", t, t.Value, h.Attr()),
				})
			}
		}
		syms[i], valid[i] = policy.CompileRule(r, v)
	}

	// Range identity and containment (PL004, PL005): Definition 8
	// makes the Range the semantic identity of a rule, so equal ranges
	// mean duplicate rules and strict containment means subsumption.
	pairwise(rules, v, syms, valid, add)

	// Conflicting rules (PL007, symbolic-only): two rules with
	// *different* attribute signatures whose projections overlap on
	// every shared attribute constrain overlapping accesses with
	// non-comparable conditions — each is silent about the other's
	// attributes, so the effective policy for the overlap is ambiguous.
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			if !valid[i] || !valid[j] || syms[i].Sig() == syms[j].Sig() {
				continue
			}
			if conflicting(syms[i], syms[j]) {
				add(Finding{
					Code: ConflictingRules, Rule: j + 1,
					Message: fmt.Sprintf("rule %s overlaps rule %d %s on every shared attribute but constrains a different attribute set; the rules conflict over the shared accesses", rules[j], i+1, rules[i]),
				})
			}
		}
	}

	// Over-broad terms (PL008, symbolic-only): a term whose ground set
	// exceeds the configured fraction of the attribute's entire ground
	// space grants nearly everything the hierarchy can express.
	if opts.OverBroadFraction > 0 {
		for i, r := range rules {
			if !valid[i] {
				continue
			}
			for _, t := range r.Terms() {
				h := v.Hierarchy(t.Attr)
				if h == nil {
					continue
				}
				ix := h.Intervals()
				sp, ok := ix.Interval(t.Value)
				if !ok || sp.Len() <= 1 {
					continue
				}
				total := ix.LeafCount()
				if total > 1 && float64(sp.Len()) > opts.OverBroadFraction*float64(total) {
					add(Finding{
						Code: OverBroadRule, Rule: i + 1, Attr: h.Attr(), Value: t.Value,
						Message: fmt.Sprintf("term %s reaches %d of the %d ground values of %q (more than %.0f%%); the constraint is nearly vacuous", t, sp.Len(), total, h.Attr(), opts.OverBroadFraction*100),
					})
				}
			}
		}
	}

	// Unreachable vocabulary subtrees (PL006). For each attribute,
	// collect the ground values any rule can reach; a maximal subtree
	// whose ground set is disjoint from that is dead vocabulary —
	// either obsolete taxonomy or a coverage hole. Findings are sorted
	// by (attribute, value) so text and JSON output are stable across
	// vocabulary registration order.
	var vf []Finding
	addVocab := func(f Finding) { vf = append(vf, f) }
	unreachable(rules, v, addVocab)
	sort.SliceStable(vf, func(i, j int) bool {
		if vf[i].Attr != vf[j].Attr {
			return vf[i].Attr < vf[j].Attr
		}
		return vf[i].Value < vf[j].Value
	})
	rep.Findings = append(rep.Findings, vf...)

	return rep
}

// symbolicPairwise compares every pair of valid rules by
// intersection cardinality: A ⊆ B iff #(A ∩ B) = #A.
func symbolicPairwise(rules []policy.Rule, _ *vocab.Vocabulary, syms []policy.SymRule, valid []bool, add func(Finding)) {
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			if !valid[i] || !valid[j] {
				continue
			}
			inter := syms[i].IntersectCard(syms[j])
			aInB, bInA := inter == syms[i].Card(), inter == syms[j].Card()
			emitPairwise(rules, i, j, aInB, bInA, add)
		}
	}
}

// emitPairwise translates a ⊆/⊇ pair into PL004/PL005 findings.
func emitPairwise(rules []policy.Rule, i, j int, aInB, bInA bool, add func(Finding)) {
	switch {
	case aInB && bInA:
		add(Finding{
			Code: DuplicateRule, Rule: j + 1,
			Message: fmt.Sprintf("rule %s has the same Range as rule %d %s (Definition 6 equivalence)", rules[j], i+1, rules[i]),
		})
	case bInA:
		add(Finding{
			Code: SubsumedRule, Rule: j + 1,
			Message: fmt.Sprintf("rule %s is subsumed by rule %d %s (Definition 8 range containment)", rules[j], i+1, rules[i]),
		})
	case aInB:
		add(Finding{
			Code: SubsumedRule, Rule: i + 1,
			Message: fmt.Sprintf("rule %s is subsumed by rule %d %s (Definition 8 range containment)", rules[i], j+1, rules[j]),
		})
	}
}

// conflicting reports whether two compiled rules of different
// signatures overlap on every attribute they share (sharing at least
// one).
func conflicting(a, b policy.SymRule) bool {
	aAttrs, bAttrs := a.Attrs(), b.Attrs()
	shared := 0
	ai, bi := 0, 0
	for ai < len(aAttrs) && bi < len(bAttrs) {
		switch {
		case aAttrs[ai] == bAttrs[bi]:
			if a.Set(ai).IntersectCard(b.Set(bi)) == 0 {
				return false
			}
			shared++
			ai++
			bi++
		case aAttrs[ai] < bAttrs[bi]:
			ai++
		default:
			bi++
		}
	}
	return shared > 0
}

// symbolicUnreachable walks each hierarchy against the interval union
// of every rule value for that attribute: a subtree is reachable iff
// its span overlaps the union. Foreign rule values reach no registered
// leaf and contribute nothing.
func symbolicUnreachable(rules []policy.Rule, v *vocab.Vocabulary, add func(Finding)) {
	for _, attr := range v.Attributes() {
		h := v.Hierarchy(attr)
		ix := h.Intervals()
		var covered []vocab.Span
		referenced := false
		for _, r := range rules {
			if r.IsZero() {
				continue
			}
			val, ok := r.Value(attr)
			if !ok {
				continue
			}
			referenced = true
			if sp, ok := ix.Interval(val); ok {
				covered = append(covered, sp)
			}
		}
		if !referenced {
			add(Finding{
				Code: UnreachableSubtree, Attr: h.Attr(),
				Message: fmt.Sprintf("no rule constrains attribute %q; its entire hierarchy is unreachable", h.Attr()),
			})
			continue
		}
		merged := vocab.MergeSpans(covered)
		var walk func(n *vocab.Node)
		walk = func(n *vocab.Node) {
			sp, _ := ix.Interval(n.Value())
			if !spansOverlap(merged, sp) {
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

// spansOverlap reports whether sp overlaps any of the sorted disjoint
// spans.
func spansOverlap(sorted []vocab.Span, sp vocab.Span) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Hi > sp.Lo })
	return i < len(sorted) && sorted[i].Lo < sp.Hi
}
