package policy

import (
	"sort"
	"strings"

	"repro/internal/vocab"
)

// This file implements the symbolic range algebra: the exact
// cardinality arithmetic of Definitions 4/6/8 computed over the
// vocabulary's Euler-tour interval numbering (vocab.Intervals)
// instead of over materialized ground rules. Algorithm 1 and the
// static-analysis layer only ever consume cardinalities of ranges and
// range intersections; representing a rule as a product of
// per-attribute interval unions makes those cardinalities products of
// interval widths, a policy a union of such boxes, and the union
// cardinality an inclusion–exclusion over per-attribute overlaps —
// evaluated by coordinate-compressed sweep so it stays polynomial in
// the number of rules and independent of vocabulary size.
//
// Values a hierarchy does not know ("foreign" values) ground to
// themselves under Definition 3; they are carried as normalized
// singleton strings next to the interval union, so symbolic results
// stay byte-identical to the materializing oracle even on policies
// that reference vocabulary the store has not adopted yet.

// AttrSet is the symbolic ground set of one attribute: a sorted,
// disjoint union of leaf intervals in the hierarchy's numbering plus
// a sorted set of normalized foreign values. The zero AttrSet is the
// empty set.
type AttrSet struct {
	Spans   []vocab.Span
	Foreign []string
}

// Card returns the ground-set cardinality of the attribute set.
func (s AttrSet) Card() int64 {
	n := int64(len(s.Foreign))
	for _, sp := range s.Spans {
		n += int64(sp.Len())
	}
	return n
}

// Intersect returns the set intersection.
func (s AttrSet) Intersect(o AttrSet) AttrSet {
	var out AttrSet
	for _, a := range s.Spans {
		for _, b := range o.Spans {
			lo, hi := max32(a.Lo, b.Lo), min32(a.Hi, b.Hi)
			if lo < hi {
				out.Spans = append(out.Spans, vocab.Span{Lo: lo, Hi: hi})
			}
		}
	}
	out.Foreign = intersectSorted(s.Foreign, o.Foreign)
	return out
}

// IntersectCard returns #(s ∩ o) without building the intersection.
func (s AttrSet) IntersectCard(o AttrSet) int64 {
	var n int64
	for _, a := range s.Spans {
		for _, b := range o.Spans {
			if lo, hi := max32(a.Lo, b.Lo), min32(a.Hi, b.Hi); lo < hi {
				n += int64(hi - lo)
			}
		}
	}
	return n + int64(len(intersectSorted(s.Foreign, o.Foreign)))
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func unionSorted(a, b []string) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// SymRule is the symbolic range of one rule (Definition 8 for a
// singleton policy): the product of its terms' attribute sets, with
// attributes in the rule's normalized sort order. The zero SymRule
// is the empty range.
type SymRule struct {
	attrs []string // normalized, sorted (NewRule order)
	sets  []AttrSet
	sig   string // attrs joined with "&": the ground-key signature
	card  int64  // product of the per-attribute cardinalities
}

// Attrs returns the normalized attribute names, sorted.
func (r SymRule) Attrs() []string { return r.attrs }

// Sig returns the attribute signature. Two ground rules can only be
// equal (Definition 6) when their rules share a signature, so all
// cross-rule set algebra is grouped by it.
func (r SymRule) Sig() string { return r.sig }

// Set returns the attribute set for the i-th attribute.
func (r SymRule) Set(i int) AttrSet { return r.sets[i] }

// Card is #Range of the rule: the product of its per-attribute
// ground-set cardinalities (Corollary 1, counted not enumerated).
func (r SymRule) Card() int64 { return r.card }

// IntersectCard returns #(Range_r ∩ Range_o): zero across different
// signatures, otherwise the product of per-attribute intersection
// cardinalities.
func (r SymRule) IntersectCard(o SymRule) int64 {
	if r.sig != o.sig {
		return 0
	}
	n := int64(1)
	for i := range r.sets {
		n *= r.sets[i].IntersectCard(o.sets[i])
		if n == 0 {
			return 0
		}
	}
	return n
}

// Subsumes reports Range_o ⊆ Range_r (Definition 8 containment).
func (r SymRule) Subsumes(o SymRule) bool {
	if o.card == 0 {
		return true
	}
	return r.IntersectCard(o) == o.card
}

// CompileRule compiles r into its symbolic range under v. The second
// result is false for the zero rule, whose range is empty (PL003).
func CompileRule(r Rule, v *vocab.Vocabulary) (SymRule, bool) {
	if r.IsZero() {
		return SymRule{}, false
	}
	terms := r.Terms()
	sr := SymRule{
		attrs: make([]string, len(terms)),
		sets:  make([]AttrSet, len(terms)),
		card:  1,
	}
	var sig strings.Builder
	for i, t := range terms {
		na := vocab.Norm(t.Attr)
		sr.attrs[i] = na
		if i > 0 {
			sig.WriteByte('&')
		}
		sig.WriteString(na)
		sr.sets[i] = compileValue(v.Hierarchy(t.Attr), t.Value)
		sr.card *= sr.sets[i].Card()
	}
	sr.sig = sig.String()
	return sr, true
}

// compileValue maps one (hierarchy, value) pair to its symbolic
// ground set: the value's subtree interval when the hierarchy knows
// it, otherwise the foreign singleton (Definition 3 for atomic
// values outside the vocabulary).
func compileValue(h *vocab.Hierarchy, value string) AttrSet {
	if h != nil {
		if sp, ok := h.Intervals().Interval(value); ok {
			return AttrSet{Spans: []vocab.Span{sp}}
		}
	}
	return AttrSet{Foreign: []string{vocab.Norm(value)}}
}

// symGroup is the set of boxes sharing one attribute signature.
type symGroup struct {
	attrs []string
	boxes []SymRule
	card  int64 // #(∪ boxes), computed once at construction
}

// SymRange is the symbolic Range of a policy (Definition 8): a union
// of boxes grouped by attribute signature. Ground rules from
// different signatures are never equal, so the total cardinality is
// the sum of per-group union cardinalities. A SymRange is immutable
// after construction and safe for concurrent readers (SymCache
// publishes them lock-free).
type SymRange struct {
	groups map[string]*symGroup
	card   int64

	// The audit-row probe's inputs, resolved once: the tripleSig group
	// (nil when the range has none), the vocabulary the range was
	// compiled under, and its authorized, data and purpose hierarchies
	// (tripleSig order), so a ContainsTriple probe takes no vocabulary
	// lock.
	tripleGroup *symGroup
	vocab       *vocab.Vocabulary
	triple      [3]*vocab.Hierarchy
}

// NewSymRange compiles the policy's rules under v. Unlike NewRange it
// cannot fail: no ground rule is ever materialized, so there is no
// expansion limit to exceed.
func NewSymRange(p *Policy, v *vocab.Vocabulary) *SymRange {
	return CompileRules(p.Rules(), v)
}

// CompileRules compiles a bare rule list into a symbolic range.
// Zero rules contribute nothing (their range is empty).
func CompileRules(rules []Rule, v *vocab.Vocabulary) *SymRange {
	rg := &SymRange{groups: make(map[string]*symGroup), vocab: v}
	if v != nil {
		rg.triple = tripleHierarchies(v)
	}
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		sr, ok := CompileRule(r, v)
		if !ok || sr.card == 0 {
			continue
		}
		// Distinct rules can compile to the same box (a chain node and
		// its only child span the same leaves); the union is unchanged,
		// so drop exact duplicates before the sweep.
		key := sr.boxKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		g := rg.groups[sr.sig]
		if g == nil {
			g = &symGroup{attrs: sr.attrs}
			rg.groups[sr.sig] = g
		}
		g.boxes = append(g.boxes, sr)
	}
	for _, g := range rg.groups {
		g.card = unionCard(g.boxes)
		rg.card += g.card
	}
	rg.tripleGroup = rg.groups[tripleSig]
	return rg
}

// boxKey is a canonical identity for a compiled box, used only for
// intra-range deduplication.
func (r SymRule) boxKey() string {
	var sb strings.Builder
	sb.WriteString(r.sig)
	for _, s := range r.sets {
		for _, sp := range s.Spans {
			sb.WriteByte('|')
			writeInt32(&sb, sp.Lo)
			sb.WriteByte(':')
			writeInt32(&sb, sp.Hi)
		}
		for _, f := range s.Foreign {
			sb.WriteByte('~')
			sb.WriteString(f)
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

func writeInt32(sb *strings.Builder, v int32) {
	// Fixed-width little-endian bytes: compact and unambiguous.
	sb.WriteByte(byte(v))
	sb.WriteByte(byte(v >> 8))
	sb.WriteByte(byte(v >> 16))
	sb.WriteByte(byte(v >> 24))
}

// Card is #Range_P: the exact number of distinct ground rules the
// policy derives, equal to NewRange(...).Len() whenever the latter is
// computable.
func (rg *SymRange) Card() int64 { return rg.card }

// IntersectCard returns #(Range_rg ∩ Range_o) — the quantity
// Algorithm 1 consumes — as the union cardinality of the pairwise box
// intersections within each shared signature.
func (rg *SymRange) IntersectCard(o *SymRange) int64 {
	sigs := make([]string, 0, len(rg.groups))
	for sig := range rg.groups {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	var total int64
	for _, sig := range sigs {
		g := rg.groups[sig]
		og, ok := o.groups[sig]
		if !ok {
			continue
		}
		var inter []SymRule
		for _, a := range g.boxes {
			for _, b := range og.boxes {
				x := a.intersect(b)
				if x.card != 0 {
					inter = append(inter, x)
				}
			}
		}
		total += unionCard(inter)
	}
	return total
}

// intersect builds the intersection box of two same-signature boxes.
func (r SymRule) intersect(o SymRule) SymRule {
	out := SymRule{attrs: r.attrs, sig: r.sig, sets: make([]AttrSet, len(r.sets)), card: 1}
	for i := range r.sets {
		out.sets[i] = r.sets[i].Intersect(o.sets[i])
		out.card *= out.sets[i].Card()
		if out.card == 0 {
			return SymRule{attrs: r.attrs, sig: r.sig}
		}
	}
	return out
}

// Subsumes reports Range_o ⊆ Range_rg (Definition 10's complete
// coverage, decided by cardinality).
func (rg *SymRange) Subsumes(o *SymRange) bool {
	return rg.IntersectCard(o) == o.card
}

// Covers reports Range_r ⊆ Range_rg for a single rule — the Prune
// (Algorithm 6) test "is this pattern already derivable from the
// store" without enumerating the pattern's groundings.
func (rg *SymRange) Covers(r SymRule) bool {
	if r.card == 0 {
		return true
	}
	g, ok := rg.groups[r.sig]
	if !ok {
		return false
	}
	var inter []SymRule
	for _, b := range g.boxes {
		if b.Subsumes(r) {
			return true // single-box fast path
		}
		x := b.intersect(r)
		if x.card != 0 {
			inter = append(inter, x)
		}
	}
	return unionCard(inter) == r.card
}

// tripleSig is the signature of the audit projection {authorized,
// data, purpose} — TripleKey's attribute order.
const tripleSig = "authorized&data&purpose"

// ContainsTriple reports whether the ground rule {(data, d) ∧
// (purpose, p) ∧ (authorized, a)} — the policy projection of one
// audit row — lies in the range. It mirrors Range.ContainsKey on the
// materialized path: the row's values must be ground (a composite
// value never equals a ground rule), and membership is an interval
// probe per attribute.
func (rg *SymRange) ContainsTriple(v *vocab.Vocabulary, data, purpose, authorized string) bool {
	g := rg.tripleGroup
	if g == nil {
		return false
	}
	hs := rg.triple
	if v != rg.vocab {
		hs = tripleHierarchies(v)
	}
	pts := [3]symPoint{
		probePoint(hs[0], authorized),
		probePoint(hs[1], data),
		probePoint(hs[2], purpose),
	}
	for i := range pts {
		if !pts[i].ground {
			return false
		}
	}
	for _, b := range g.boxes {
		if b.containsPoints(&pts) {
			return true
		}
	}
	return false
}

// CoversTriple reports whether every ground rule derived from
// {(data, d) ∧ (purpose, p) ∧ (authorized, a)} lies in the range: the
// enforcement decision, which unlike ContainsTriple accepts composite
// values. Ground triples take the ContainsTriple probe; a composite
// one is compiled and decided by Covers.
func (rg *SymRange) CoversTriple(v *vocab.Vocabulary, data, purpose, authorized string) bool {
	if rg.ContainsTriple(v, data, purpose, authorized) {
		return true
	}
	sr, _ := CompileRule(MustRule(T("data", data), T("purpose", purpose), T("authorized", authorized)), v)
	return rg.Covers(sr)
}

// symPoint is one ground coordinate: a leaf position, or a foreign
// value when the hierarchy does not know it.
type symPoint struct {
	leaf    int32
	foreign string
	ground  bool
}

// tripleHierarchies resolves the hierarchies of tripleSig's attributes.
func tripleHierarchies(v *vocab.Vocabulary) [3]*vocab.Hierarchy {
	return [3]*vocab.Hierarchy{v.Hierarchy("authorized"), v.Hierarchy("data"), v.Hierarchy("purpose")}
}

// probePoint compiles one probe value into a point, normalizing it
// once: its leaf in the hierarchy's interval snapshot, or the foreign
// value the hierarchy does not know.
func probePoint(h *vocab.Hierarchy, value string) symPoint {
	n := vocab.Norm(value)
	if h != nil {
		if sp, ok := h.Intervals().NormInterval(n); ok {
			// A composite value is not a ground rule coordinate; the
			// materialized range holds only leaves, so membership fails.
			if sp.Len() != 1 {
				return symPoint{}
			}
			return symPoint{leaf: sp.Lo, ground: true}
		}
	}
	return symPoint{foreign: n, ground: true}
}

func (r SymRule) containsPoints(pts *[3]symPoint) bool {
	for i := range r.sets {
		if !r.sets[i].containsPoint(pts[i]) {
			return false
		}
	}
	return true
}

func (s AttrSet) containsPoint(p symPoint) bool {
	if p.foreign != "" {
		i := sort.SearchStrings(s.Foreign, p.foreign)
		return i < len(s.Foreign) && s.Foreign[i] == p.foreign
	}
	// Spans are sorted and disjoint: binary search the candidate.
	i := sort.Search(len(s.Spans), func(i int) bool { return s.Spans[i].Hi > p.leaf })
	return i < len(s.Spans) && s.Spans[i].Lo <= p.leaf
}

// ---- union cardinality ----

// unionCard computes #(b1 ∪ ... ∪ bn) exactly for boxes over one
// attribute signature. Foreign values are first renumbered into unit
// coordinates past the hierarchy's leaf space (deterministically, in
// sorted order), reducing every set to a pure interval union; the
// union cardinality is then evaluated by coordinate-compressed sweep
// over the first attribute with memoized recursion over the rest —
// the inclusion–exclusion over per-attribute overlaps of Definitions
// 4/6/8, organized so shared sub-problems are counted once instead of
// 2^n times.
func unionCard(boxes []SymRule) int64 {
	switch len(boxes) {
	case 0:
		return 0
	case 1:
		return boxes[0].card
	}
	ndim := len(boxes[0].attrs)
	ctx := sweepCtx{
		dims: make([][][]vocab.Span, len(boxes)),
		ndim: ndim,
		memo: make(map[string]int64),
	}
	for d := 0; d < ndim; d++ {
		// Renumber this dimension's foreign values (shared across the
		// boxes) to synthetic leaf ids so the sweep sees only spans.
		var foreign []string
		for _, b := range boxes {
			foreign = unionSorted(foreign, b.sets[d].Foreign)
		}
		base := int32(0)
		for _, b := range boxes {
			for _, sp := range b.sets[d].Spans {
				if sp.Hi > base {
					base = sp.Hi
				}
			}
		}
		for i, b := range boxes {
			if ctx.dims[i] == nil {
				ctx.dims[i] = make([][]vocab.Span, ndim)
			}
			spans := append([]vocab.Span(nil), b.sets[d].Spans...)
			for _, f := range b.sets[d].Foreign {
				id := base + int32(sort.SearchStrings(foreign, f))
				spans = append(spans, vocab.Span{Lo: id, Hi: id + 1})
			}
			ctx.dims[i][d] = vocab.MergeSpans(spans)
		}
	}
	active := make([]int32, len(boxes))
	for i := range active {
		active[i] = int32(i)
	}
	return ctx.card(active, 0)
}

type sweepCtx struct {
	dims [][][]vocab.Span // [box][dim] -> sorted disjoint spans
	ndim int
	memo map[string]int64 // (dim, active set) -> union card over dims ≥ dim
}

func (c *sweepCtx) card(active []int32, dim int) int64 {
	if len(active) == 1 {
		n := int64(1)
		for d := dim; d < c.ndim; d++ {
			n *= spanCard(c.dims[active[0]][d])
		}
		return n
	}
	if dim == c.ndim-1 {
		all := make([]vocab.Span, 0, len(active))
		for _, b := range active {
			all = append(all, c.dims[b][dim]...)
		}
		return spanCard(vocab.MergeSpans(all))
	}
	key := c.memoKey(active, dim)
	if n, ok := c.memo[key]; ok {
		return n
	}
	// Coordinate compression: every span endpoint of the active boxes
	// in this dimension; within each elementary interval the active
	// subset is constant, so its sub-union card multiplies the width.
	coords := make([]int32, 0, 2*len(active))
	for _, b := range active {
		for _, sp := range c.dims[b][dim] {
			coords = append(coords, sp.Lo, sp.Hi)
		}
	}
	sort.Slice(coords, func(i, j int) bool { return coords[i] < coords[j] })
	coords = dedupInt32(coords)
	var total int64
	sub := make([]int32, 0, len(active))
	for i := 0; i+1 < len(coords); i++ {
		lo, hi := coords[i], coords[i+1]
		sub = sub[:0]
		for _, b := range active {
			if spanListContains(c.dims[b][dim], lo) {
				sub = append(sub, b)
			}
		}
		if len(sub) == 0 {
			continue
		}
		total += int64(hi-lo) * c.card(sub, dim+1)
	}
	c.memo[key] = total
	return total
}

func (c *sweepCtx) memoKey(active []int32, dim int) string {
	var sb strings.Builder
	sb.Grow(1 + 4*len(active))
	sb.WriteByte(byte(dim))
	for _, b := range active {
		writeInt32(&sb, b)
	}
	return sb.String()
}

func spanCard(spans []vocab.Span) int64 {
	var n int64
	for _, sp := range spans {
		n += int64(sp.Len())
	}
	return n
}

func spanListContains(spans []vocab.Span, p int32) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Hi > p })
	return i < len(spans) && spans[i].Lo <= p
}

func dedupInt32(a []int32) []int32 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}
