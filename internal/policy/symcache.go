package policy

import (
	"sync"

	"repro/internal/vocab"
)

// SymCache memoizes symbolic range compilations, keyed on policy and
// vocabulary identity and validated against their mutation counters.
// Compilation is cheap (linear in the rule count), but the eager
// union-cardinality sweep is not free, and coverage, enforcement and
// lint all probe the same slowly-changing store.
//
// A cached *SymRange is immutable after construction and safe for any
// number of concurrent readers.
type SymCache struct {
	mu      sync.Mutex
	entries map[symCacheKey]symCacheEntry
}

// rangeCacheMax bounds the cache; short-lived policies (refinement
// scratch stores, test fixtures) would otherwise pin their ranges
// forever. Exceeding the bound drops the whole map: the cache exists
// for the steady state of a few long-lived stores, where it never
// trips.
const rangeCacheMax = 256

type symCacheKey struct {
	p *Policy
	v *vocab.Vocabulary
}

type symCacheEntry struct {
	pver uint64
	vgen uint64
	rg   *SymRange
}

// NewSymCache returns an empty cache.
func NewSymCache() *SymCache {
	return &SymCache{entries: make(map[symCacheKey]symCacheEntry)}
}

// SharedSym is the process-wide symbolic range cache: every
// "is this rule in Range(P)?" question of coverage, enforcement,
// tree-record redaction and lint goes through it.
var SharedSym = NewSymCache()

// Range returns the symbolic range of p under v, recompiling only when
// the policy's version or the vocabulary's generation has moved since
// the last call. It cannot fail: no ground rule is ever materialized.
func (c *SymCache) Range(p *Policy, v *vocab.Vocabulary) *SymRange {
	key := symCacheKey{p: p, v: v}
	pver := p.Version()
	vgen := v.Generation()

	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.pver == pver && e.vgen == vgen {
		c.mu.Unlock()
		return e.rg
	}
	c.mu.Unlock()

	// Compile outside the cache lock; compilation takes the vocabulary
	// read lock (interval rebuilds) and must not stall other lookups.
	rg := NewSymRange(p, v)

	// Re-read the input versions BEFORE re-taking the cache lock: the
	// pinned acquisition order (lockorder.txt) puts Policy and
	// Vocabulary ahead of SymCache.
	pver2 := p.Version()
	vgen2 := v.Generation()

	c.mu.Lock()
	if len(c.entries) >= rangeCacheMax {
		c.entries = make(map[symCacheKey]symCacheEntry)
	}
	if pver2 == pver && vgen2 == vgen {
		c.entries[key] = symCacheEntry{pver: pver, vgen: vgen, rg: rg}
	}
	c.mu.Unlock()
	return rg
}

// Len reports how many symbolic ranges are currently cached.
func (c *SymCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
