package policy

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/vocab"
)

// Policy is a collection of rules symbolically tied to a data store
// (Definition 7): the policy store P_PS or the audit logs P_AL.
// Policies are safe for concurrent use: in a PRIMA deployment the
// enforcement middleware reads the store while refinement sessions
// adopt rules into it.
type Policy struct {
	Name string // e.g. "PS" (policy store) or "AL" (audit logs)

	mu    sync.RWMutex
	rules []Rule
	// index maps canonical rule keys to their position in rules,
	// making Add/Contains/Remove O(1) instead of a linear scan.
	index map[string]int
	// version counts mutations. Every change to the rule set bumps it
	// while mu is held, so caches (SymCache, the enforcement decision
	// snapshot) detect staleness with one integer compare instead of
	// re-fingerprinting the store.
	// The counter is atomic so the per-query validity probe on the
	// enforcement fast path is a lock-free load.
	version atomic.Uint64
}

// New returns an empty policy with the given name.
func New(name string) *Policy { return &Policy{Name: name} }

// FromRules builds a policy from rules, skipping exact duplicates.
func FromRules(name string, rules ...Rule) *Policy {
	p := New(name)
	for _, r := range rules {
		p.Add(r)
	}
	return p
}

// Add appends rule r unless an identical rule is already present.
// It reports whether the rule was added.
func (p *Policy) Add(r Rule) bool {
	if r.IsZero() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addLocked(r)
}

func (p *Policy) addLocked(r Rule) bool {
	key := r.Key()
	if _, ok := p.index[key]; ok {
		return false
	}
	if p.index == nil {
		p.index = make(map[string]int)
	}
	p.index[key] = len(p.rules)
	p.rules = append(p.rules, r)
	p.version.Add(1)
	return true
}

// Remove deletes the rule with the same canonical key, reporting
// whether a rule was removed. Removal swaps the last rule into the
// vacated slot (O(1)); see Rules for the ordering consequence.
func (p *Policy) Remove(r Rule) bool {
	key := r.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.index[key]
	if !ok {
		return false
	}
	last := len(p.rules) - 1
	if i != last {
		p.rules[i] = p.rules[last]
		p.index[p.rules[i].Key()] = i
	}
	p.rules[last] = Rule{}
	p.rules = p.rules[:last]
	delete(p.index, key)
	p.version.Add(1)
	return true
}

// Rules returns a copy of the policy's rules. The order is insertion
// order, except that Remove moves the last rule into the removed
// rule's slot.
func (p *Policy) Rules() []Rule {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Rule, len(p.rules))
	copy(out, p.rules)
	return out
}

// SetRules replaces the policy's rules wholesale (deduplicated),
// keeping the Policy identity — callers holding a reference (the
// enforcer, a refinement session) observe the new rule set.
func (p *Policy) SetRules(rules []Rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = p.rules[:0:0]
	p.index = make(map[string]int, len(rules))
	p.version.Add(1)
	for _, r := range rules {
		if !r.IsZero() {
			p.addLocked(r)
		}
	}
}

// Version returns the mutation counter: it increases on every change
// to the rule set, so a cache can validate a derived artifact (the
// policy's symbolic range, the enforcement decision snapshot) with one
// integer compare. The read is lock-free.
func (p *Policy) Version() uint64 {
	return p.version.Load()
}

// Len is the cardinality #P of the policy.
func (p *Policy) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.rules)
}

// Contains reports whether an identical rule is present.
func (p *Policy) Contains(r Rule) bool {
	key := r.Key()
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.index[key]
	return ok
}

// IsGround reports whether every rule is ground under v.
func (p *Policy) IsGround(v *vocab.Vocabulary) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, r := range p.rules {
		if !r.IsGround(v) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the policy sharing no mutable state.
func (p *Policy) Clone() *Policy {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := New(p.Name)
	out.rules = append([]Rule(nil), p.rules...)
	out.index = make(map[string]int, len(p.index))
	for k, i := range p.index {
		out.index[k] = i
	}
	return out
}

// String renders the policy one rule per line.
func (p *Policy) String() string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := p.Name + ":\n"
	for i, r := range p.rules {
		s += fmt.Sprintf("  %d. %s\n", i+1, r)
	}
	return s
}

// Range is the set of ground rules derivable from a policy
// (Definition 8), deduplicated by canonical key.
//
// prima:arena — a Range is built once over the grounding arena's flat
// term arrays and key builder, then only read; prima-vet's arenasafe
// analyzer rejects any write to a Range after it has been published.
type Range struct {
	rules []Rule
	keys  map[string]int // canonical key -> index into rules
}

// DefaultRangeLimit bounds range expansion; composite rules over wide
// vocabularies explode combinatorially and an unbounded expansion is a
// denial-of-service hazard for a policy service.
const DefaultRangeLimit = 1 << 20

// ErrRangeTooLarge is returned when range expansion exceeds the limit.
var ErrRangeTooLarge = fmt.Errorf("policy: range expansion exceeds limit")

// NewRange computes Range_P under v (the paper's getRange(P, V)),
// listing every ground rule. limit ≤ 0 applies DefaultRangeLimit.
// Membership questions do not need the listing: SymRange answers them
// without expansion. NewRange is for callers that emit ground rules.
func NewRange(p *Policy, v *vocab.Vocabulary, limit int) (*Range, error) {
	if limit <= 0 {
		limit = DefaultRangeLimit
	}
	rules := p.Rules()
	sets, est := expandSets(rules, v, limit)
	rg := &Range{keys: make(map[string]int, est), rules: make([]Rule, 0, est)}
	for i, r := range rules {
		grounds, truncated := groundProduct(sets[i], limit-len(rg.rules)+1)
		if truncated || len(rg.rules)+len(grounds) > limit {
			return nil, fmt.Errorf("%w (limit %d) expanding %s", ErrRangeTooLarge, limit, r)
		}
		for _, g := range grounds {
			rg.add(g)
		}
	}
	return rg, nil
}

// expandSets derives the keyed ground set of every rule's terms up
// front, sharing identical composite terms across rules via a memo,
// and estimates the total grounding count (clamped at limit) so the
// dedup map can be presized.
func expandSets(rules []Rule, v *vocab.Vocabulary, limit int) ([][][]Term, int) {
	memo := make(map[string][]Term)
	sets := make([][][]Term, len(rules))
	est := 0
	for i, r := range rules {
		sets[i] = keyedSets(r.terms, v, memo)
		n := 1
		for _, s := range sets[i] {
			n *= len(s)
			if n > limit {
				n = limit
				break
			}
		}
		est += n
		if est > limit {
			est = limit
		}
	}
	return sets, est
}

func (rg *Range) add(g Rule) {
	key := g.Key()
	if _, ok := rg.keys[key]; ok {
		return
	}
	rg.keys[key] = len(rg.rules)
	rg.rules = append(rg.rules, g)
}

// Len is the cardinality #Range_P.
func (rg *Range) Len() int { return len(rg.rules) }

// Rules returns the ground rules in first-derived order.
func (rg *Range) Rules() []Rule { return rg.rules }

// Contains reports whether ground rule g is in the range.
func (rg *Range) Contains(g Rule) bool {
	_, ok := rg.keys[g.Key()]
	return ok
}

// ContainsKey reports whether a ground rule with the given canonical
// key is in the range; the key-only form lets callers that already
// hold a canonical key (audit entries, the enforcer) skip rule
// construction entirely.
func (rg *Range) ContainsKey(key string) bool {
	_, ok := rg.keys[key]
	return ok
}

// IntersectCount returns #(rg ∩ other) without materializing the
// intersection, counting membership against the smaller side — the
// quantity Algorithm 1 actually needs.
func (rg *Range) IntersectCount(other *Range) int {
	small, big := rg, other
	if big.Len() < small.Len() {
		small, big = big, small
	}
	n := 0
	for key := range small.keys {
		if _, ok := big.keys[key]; ok {
			n++
		}
	}
	return n
}

// Keys returns the sorted canonical keys of the range; useful for
// deterministic comparisons in tests.
func (rg *Range) Keys() []string {
	out := make([]string, 0, len(rg.keys))
	for k := range rg.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
