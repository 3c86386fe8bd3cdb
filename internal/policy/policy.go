// Package policy implements the formal privacy-policy model of PRIMA
// (Bhatti & Grandison, 2007), Section 3.1: RuleTerms (Definition 1),
// ground and composite terms (Definition 2), Rules as conjunctions of
// RuleTerms (Definition 5), Policies as collections of Rules
// (Definition 7), the equivalence relations of Definitions 4 and 6,
// and the Range of a policy (Definition 8).
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vocab"
)

// Term is a RuleTerm (Definition 1): the assignment of a value to an
// attribute, e.g. (data, demographic).
type Term struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`

	// key caches the canonical comparison key. It is set only when the
	// term has been normalized into a Rule (or derived by the grounding
	// fast path), so literal-constructed Terms remain comparable with
	// ==/DeepEqual against T() and struct literals.
	key string
}

// T is shorthand for constructing a Term.
//
// prima:redact — a Term is an (attribute, category) pair drawn from
// the shared vocabulary taxonomy: the projection of an audit row into
// policy space discards the user identity, and refinement only
// surfaces terms whose support clears the k-anonymity thresholds
// (MinSupport, MinDistinctUsers). phileak therefore treats term
// construction as the declassification boundary for the data and
// purpose categories.
func T(attr, value string) Term { return Term{Attr: attr, Value: value} }

// String renders the term in the paper's notation.
func (t Term) String() string { return "(" + t.Attr + ", " + t.Value + ")" }

// Key returns the normalized comparison key of the term. Terms held
// inside a Rule carry the key precomputed at construction; the
// computation only runs for free-standing terms.
func (t Term) Key() string {
	if t.key != "" {
		return t.key
	}
	return vocab.Norm(t.Attr) + "=" + vocab.Norm(t.Value)
}

// IsGround reports whether the term is ground with respect to v
// (Definition 2).
func (t Term) IsGround(v *vocab.Vocabulary) bool { return v.IsGround(t.Attr, t.Value) }

// GroundTerms returns the set RT' of ground terms derivable from t
// (Definition 3), in deterministic order.
func (t Term) GroundTerms(v *vocab.Vocabulary) []Term {
	values := v.GroundSet(t.Attr, t.Value)
	out := make([]Term, len(values))
	for i, val := range values {
		out[i] = Term{Attr: t.Attr, Value: val}
	}
	return out
}

// Equivalent reports whether t ≈ u under v (Definition 4): the terms
// share an attribute and their ground sets intersect.
func (t Term) Equivalent(u Term, v *vocab.Vocabulary) bool {
	if vocab.Norm(t.Attr) != vocab.Norm(u.Attr) {
		return false
	}
	return v.Equivalent(t.Attr, t.Value, u.Value)
}

// Rule is a conjunction of RuleTerms (Definition 5). Rules are kept
// normalized: terms sorted by attribute then value, with exact
// duplicates removed. The paper's cardinality #R is Len().
type Rule struct {
	terms []Term
	// key caches the canonical comparison key (Definition 6 identity
	// for ground rules), computed once at construction so that every
	// downstream comparison — Policy indexing, Range dedup, coverage
	// counting — is a plain string compare.
	key string
}

// NewRule builds a normalized rule from terms. It is an error to
// construct an empty rule (Definition 5 requires n ≥ 1) or a rule with
// two different values for the same attribute: a Rule models one
// specific combination of attribute assignments.
func NewRule(terms ...Term) (Rule, error) {
	if len(terms) == 0 {
		return Rule{}, fmt.Errorf("policy: a rule requires at least one term")
	}
	type keyed struct {
		t      Term
		na, nv string
	}
	byAttr := make(map[string]keyed, len(terms))
	for _, t := range terms {
		na, nv := vocab.Norm(t.Attr), vocab.Norm(t.Value)
		if na == "" {
			return Rule{}, fmt.Errorf("policy: term %v has an empty attribute", t)
		}
		if nv == "" {
			return Rule{}, fmt.Errorf("policy: term %v has an empty value", t)
		}
		if prev, ok := byAttr[na]; ok {
			if prev.nv != nv {
				return Rule{}, fmt.Errorf("policy: conflicting terms %v and %v for attribute %q", prev.t, t, t.Attr)
			}
			continue
		}
		t.key = na + "=" + nv
		byAttr[na] = keyed{t: t, na: na, nv: nv}
	}
	norm := make([]keyed, 0, len(byAttr))
	for _, k := range byAttr {
		norm = append(norm, k)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].na != norm[j].na {
			return norm[i].na < norm[j].na
		}
		return norm[i].nv < norm[j].nv
	})
	out := make([]Term, len(norm))
	keys := make([]string, len(norm))
	for i, k := range norm {
		out[i] = k.t
		keys[i] = k.t.key
	}
	return Rule{terms: out, key: strings.Join(keys, "&")}, nil
}

// MustRule is NewRule that panics on error; for static data.
func MustRule(terms ...Term) Rule {
	r, err := NewRule(terms...)
	if err != nil {
		panic(err)
	}
	return r
}

// Terms returns the rule's terms in normalized order. The returned
// slice must not be modified.
func (r Rule) Terms() []Term { return r.terms }

// Len is the cardinality #R of the rule.
func (r Rule) Len() int { return len(r.terms) }

// IsZero reports whether the rule is the zero value (no terms).
func (r Rule) IsZero() bool { return len(r.terms) == 0 }

// Value returns the value the rule assigns to attr and whether the
// attribute is present.
func (r Rule) Value(attr string) (string, bool) {
	key := vocab.Norm(attr)
	for _, t := range r.terms {
		if vocab.Norm(t.Attr) == key {
			return t.Value, true
		}
	}
	return "", false
}

// String renders the rule in the paper's notation,
// {(a1, v1) ∧ (a2, v2) ∧ ...}.
func (r Rule) String() string {
	parts := make([]string, len(r.terms))
	for i, t := range r.terms {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, " ∧ ") + "}"
}

// Key returns a canonical comparison key. Two rules have equal keys
// iff they contain exactly the same normalized terms. The key is
// computed once at construction; Key only reads the cached value.
func (r Rule) Key() string {
	if r.key != "" || len(r.terms) == 0 {
		return r.key
	}
	// Fallback for rules built outside the constructors (should not
	// happen; kept for safety).
	parts := make([]string, len(r.terms))
	for i, t := range r.terms {
		parts[i] = t.Key()
	}
	return strings.Join(parts, "&")
}

// TripleKey returns the canonical key of the ground rule
// {(data, d) ∧ (purpose, p) ∧ (authorized, a)} — the policy
// projection of an audit row or an enforcement check — without
// constructing the rule. Normalized attribute order is
// authorized < data < purpose, matching NewRule's sort.
//
// prima:redact — same declassification boundary as T: the key holds
// only vocabulary categories, never a user identity.
func TripleKey(data, purpose, authorized string) string {
	a, d, p := vocab.Norm(authorized), vocab.Norm(data), vocab.Norm(purpose)
	var sb strings.Builder
	sb.Grow(len("authorized=&data=&purpose=") + len(a) + len(d) + len(p))
	sb.WriteString("authorized=")
	sb.WriteString(a)
	sb.WriteString("&data=")
	sb.WriteString(d)
	sb.WriteString("&purpose=")
	sb.WriteString(p)
	return sb.String()
}

// IsGround reports whether every term of the rule is ground under v.
func (r Rule) IsGround(v *vocab.Vocabulary) bool {
	for _, t := range r.terms {
		if !t.IsGround(v) {
			return false
		}
	}
	return true
}

// Groundings enumerates the ground rules derivable from r under v:
// the cartesian product of each term's ground set (Corollary 1).
// The enumeration is deterministic. limit > 0 bounds the number of
// rules produced; the bool result reports whether the enumeration was
// truncated.
func (r Rule) Groundings(v *vocab.Vocabulary, limit int) ([]Rule, bool) {
	return groundProduct(keyedSets(r.terms, v, nil), limit)
}

// keyedSets computes the keyed ground-term set of each term, sharing
// results across identical terms through memo (may be nil). The memo
// lets a range expansion over many rules derive each distinct
// composite term once.
func keyedSets(terms []Term, v *vocab.Vocabulary, memo map[string][]Term) [][]Term {
	sets := make([][]Term, len(terms))
	for i, t := range terms {
		key := t.Key()
		if g, ok := memo[key]; ok {
			sets[i] = g
			continue
		}
		g := t.groundTermsKeyed(v)
		if memo != nil {
			memo[key] = g
		}
		sets[i] = g
	}
	return sets
}

// groundProduct enumerates the cartesian product of the keyed ground
// sets — the grounding fast path. The enumeration order (last set
// varies fastest) and the truncation semantics match the original
// per-rule expansion exactly.
func groundProduct(sets [][]Term, limit int) ([]Rule, bool) {
	k := len(sets)
	total := 1
	for _, s := range sets {
		total *= len(s)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	out := make([]Rule, 0, total)
	// One backing array holds the terms of every ground rule, and one
	// append-only builder holds every rule key (each key is a slice of
	// the accumulated string — appends never mutate bytes already
	// written, so the slices stay valid as the buffer grows): the
	// expansion is the hot path of Range (Definition 8) and per-rule
	// allocations dominate its cost.
	flat := make([]Term, total*k)
	idx := make([]int, k)
	truncated := false
	var sb strings.Builder
	for {
		base := len(out) * k
		row := flat[base : base+k : base+k]
		start := sb.Len()
		for i, j := range idx {
			row[i] = sets[i][j]
			if i > 0 {
				sb.WriteByte('&')
			}
			sb.WriteString(row[i].key)
		}
		out = append(out, Rule{terms: row, key: sb.String()[start:]})
		if limit > 0 && len(out) >= limit {
			// Check whether anything remains.
			for i := len(idx) - 1; i >= 0; i-- {
				if idx[i]+1 < len(sets[i]) {
					truncated = true
					break
				}
			}
			break
		}
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(sets[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, truncated
}

// groundTermsKeyed is GroundTerms with the canonical term keys
// precomputed, so grounding a composite rule performs one Norm per
// distinct ground value instead of one per derived rule.
func (t Term) groundTermsKeyed(v *vocab.Vocabulary) []Term {
	values := v.GroundSet(t.Attr, t.Value)
	na := vocab.Norm(t.Attr)
	out := make([]Term, len(values))
	// All keys are slices of one append-only builder (see
	// groundProduct for why that is safe).
	var sb strings.Builder
	for i, val := range values {
		start := sb.Len()
		sb.WriteString(na)
		sb.WriteByte('=')
		sb.WriteString(vocab.Norm(val))
		out[i] = Term{Attr: t.Attr, Value: val, key: sb.String()[start:]}
	}
	return out
}

// Equivalent reports whether r ≈ u under v (Definition 6): the rules
// have the same cardinality and every term of r is equivalent to some
// term of u.
func (r Rule) Equivalent(u Rule, v *vocab.Vocabulary) bool {
	if r.Len() != u.Len() {
		return false
	}
	for _, t := range r.terms {
		found := false
		for _, s := range u.terms {
			if t.Equivalent(s, v) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
