package vocab

import (
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the Euler-tour (pre/post-order) interval
// numbering of a hierarchy: leaves are numbered 0..leafCount-1 in
// depth-first order over the roots, and every node is assigned the
// half-open interval [lo, hi) spanning exactly the leaves of its
// subtree. The numbering turns Definition 3's ground set of a value
// into an integer interval — #GroundSet(v) = hi-lo, subtree
// containment (Subsumes) into interval containment, and ground-set
// intersection (the Definition 4 equivalence test) into interval
// overlap — which is what lets the symbolic range algebra in
// internal/policy analyze SNOMED/ICD-scale vocabularies without ever
// materializing a ground rule.

// Span is a half-open interval [Lo, Hi) of leaf positions in one
// hierarchy's Euler-tour numbering.
type Span struct {
	Lo, Hi int32
}

// Len returns the number of leaves in the span — the ground-set
// cardinality of the value it numbers.
func (s Span) Len() int { return int(s.Hi - s.Lo) }

// Empty reports whether the span covers no leaves.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Overlaps reports whether the spans share at least one leaf.
func (s Span) Overlaps(o Span) bool { return s.Lo < o.Hi && o.Lo < s.Hi }

// Contains reports whether o lies entirely inside s.
func (s Span) Contains(o Span) bool { return s.Lo <= o.Lo && o.Hi <= s.Hi }

// MergeSpans sorts and coalesces overlapping or adjacent spans into
// the canonical (sorted, disjoint) union. The input slice is reused.
func MergeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp.Lo <= last.Hi {
			if sp.Hi > last.Hi {
				last.Hi = sp.Hi
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// Intervals is an immutable snapshot of one hierarchy's interval
// numbering, valid for the vocabulary generation it was built at.
// Snapshots are shared lock-free between any number of readers; a
// mutated vocabulary yields a fresh snapshot on the next Intervals
// call rather than ever changing a published one.
type Intervals struct {
	gen       uint64
	leafCount int32
	spans     map[string]Span // by Norm(value)
}

// Generation returns the vocabulary generation the snapshot was built
// at; it is stale once Vocabulary.Generation has moved past it.
func (ix *Intervals) Generation() uint64 { return ix.gen }

// LeafCount returns the total number of ground values in the
// hierarchy — the cardinality of the attribute's ground space.
func (ix *Intervals) LeafCount() int { return int(ix.leafCount) }

// Interval returns the leaf interval of value's subtree and whether
// the value is registered in the hierarchy. Ground values map to
// unit intervals.
func (ix *Intervals) Interval(value string) (Span, bool) {
	s, ok := ix.spans[Norm(value)]
	return s, ok
}

// Len returns the number of values numbered by the snapshot.
func (ix *Intervals) Len() int { return len(ix.spans) }

// intervalCache publishes the hierarchy's interval snapshot. The
// discipline mirrors the hdb decision snapshot: readers load the
// atomic pointer and compare the snapshot's generation against the
// vocabulary's counter lock-free; the mutex only serializes rebuilds
// (singleflight) so concurrent readers of a stale cache do not all
// renumber a 100k-node hierarchy at once.
type intervalCache struct {
	mu  sync.Mutex // serializes rebuilds, never held by readers
	cur atomic.Pointer[Intervals]
}

// Intervals returns the hierarchy's interval numbering, rebuilding it
// only when the vocabulary has mutated since the cached snapshot was
// published. The fast path is one atomic load plus one atomic
// generation compare.
func (h *Hierarchy) Intervals() *Intervals {
	if ix := h.icache.cur.Load(); ix != nil && ix.gen == h.owner.gen.Load() {
		return ix
	}
	return h.icache.rebuild(h)
}

// rebuild renumbers the hierarchy under the vocabulary read lock and
// publishes the snapshot. The generation is read under the same lock
// that excludes Add, so a snapshot can never be stale at birth; a
// mutation landing after the build is caught by the next caller's
// generation compare.
func (c *intervalCache) rebuild(h *Hierarchy) *Intervals {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ix := c.cur.Load(); ix != nil && ix.gen == h.owner.gen.Load() {
		return ix // lost the race to another rebuilder
	}
	h.owner.mu.RLock()
	ix := &Intervals{
		gen:   h.owner.gen.Load(),
		spans: make(map[string]Span, len(h.nodes)),
	}
	var leaf int32
	var walk func(n *Node)
	walk = func(n *Node) {
		lo := leaf
		if len(n.children) == 0 {
			leaf++
		} else {
			for _, ch := range n.children {
				walk(ch)
			}
		}
		ix.spans[Norm(n.value)] = Span{Lo: lo, Hi: leaf}
	}
	for _, r := range h.roots {
		walk(r)
	}
	ix.leafCount = leaf
	h.owner.mu.RUnlock()
	c.cur.Store(ix)
	return ix
}
