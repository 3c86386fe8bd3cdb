package vocab

import (
	"fmt"
	"sync"
	"testing"
)

// TestIntervalsMatchGroundSets pins the interval numbering against
// GroundSet on the paper vocabulary: every registered value's span
// width equals its ground-set cardinality, containment mirrors
// Subsumes, and overlap mirrors the Definition 4 equivalence.
func TestIntervalsMatchGroundSets(t *testing.T) {
	v := Sample()
	for _, attr := range v.Attributes() {
		h := v.Hierarchy(attr)
		ix := h.Intervals()
		if ix.LeafCount() != len(h.Leaves()) {
			t.Fatalf("%s: leaf count %d, want %d", attr, ix.LeafCount(), len(h.Leaves()))
		}
		values := h.Values()
		for _, val := range values {
			s, ok := ix.Interval(val)
			if !ok {
				t.Fatalf("%s: no interval for %q", attr, val)
			}
			if got, want := s.Len(), len(h.GroundSet(val)); got != want {
				t.Errorf("%s %q: span width %d, want ground-set size %d", attr, val, got, want)
			}
		}
		for _, a := range values {
			sa, _ := ix.Interval(a)
			for _, b := range values {
				sb, _ := ix.Interval(b)
				if got, want := sa.Contains(sb), h.Subsumes(a, b); got != want {
					t.Errorf("%s: Contains(%q,%q) = %v, Subsumes = %v", attr, a, b, got, want)
				}
				if got, want := sa.Overlaps(sb), v.Equivalent(attr, a, b); got != want {
					t.Errorf("%s: Overlaps(%q,%q) = %v, Equivalent = %v", attr, a, b, got, want)
				}
			}
		}
	}
}

func TestIntervalUnknownValue(t *testing.T) {
	v := Sample()
	ix := v.Hierarchy("data").Intervals()
	if _, ok := ix.Interval("xray"); ok {
		t.Fatal("unknown value got an interval")
	}
	if s, ok := ix.Interval("  Clinical "); !ok || s.Empty() {
		t.Fatalf("normalized lookup failed: %v %v", s, ok)
	}
}

// TestIntervalsInvalidation: a mutation yields a fresh snapshot with
// the new generation while the old snapshot stays internally valid.
func TestIntervalsInvalidation(t *testing.T) {
	v := New()
	h := v.MustAttribute("data")
	h.MustAdd("", "root")
	h.MustAdd("root", "a")
	old := h.Intervals()
	if old.LeafCount() != 1 {
		t.Fatalf("leafCount = %d", old.LeafCount())
	}
	if again := h.Intervals(); again != old {
		t.Fatal("unchanged vocabulary rebuilt the snapshot")
	}
	h.MustAdd("root", "b")
	fresh := h.Intervals()
	if fresh == old {
		t.Fatal("mutation did not invalidate the snapshot")
	}
	if fresh.Generation() <= old.Generation() {
		t.Fatalf("generation did not advance: %d -> %d", old.Generation(), fresh.Generation())
	}
	if fresh.LeafCount() != 2 {
		t.Fatalf("leafCount = %d after add", fresh.LeafCount())
	}
	if s, _ := fresh.Interval("root"); s.Len() != 2 {
		t.Fatalf("root span = %v", s)
	}
	// The old snapshot is immutable: its numbers still describe the
	// pre-mutation hierarchy.
	if s, _ := old.Interval("root"); s.Len() != 1 {
		t.Fatalf("published snapshot mutated: %v", s)
	}
}

// TestIntervalDisjointSiblings: sibling subtrees partition their
// parent's interval with no gaps or overlaps.
func TestIntervalDisjointSiblings(t *testing.T) {
	v := Sample()
	h := v.Hierarchy("data")
	ix := h.Intervals()
	var check func(n *Node)
	check = func(n *Node) {
		if len(n.Children()) == 0 {
			return
		}
		parent, _ := ix.Interval(n.Value())
		at := parent.Lo
		for _, c := range n.Children() {
			cs, _ := ix.Interval(c.Value())
			if cs.Lo != at {
				t.Errorf("child %q starts at %d, want %d", c.Value(), cs.Lo, at)
			}
			at = cs.Hi
			check(c)
		}
		if at != parent.Hi {
			t.Errorf("children of %q end at %d, want %d", n.Value(), at, parent.Hi)
		}
	}
	for _, r := range h.Roots() {
		check(r)
	}
}

// TestIntervalsConcurrent exercises the publish discipline under the
// race detector: readers load snapshots while a writer grows the
// hierarchy; every snapshot must be internally consistent (root span
// equals leaf count over a single-root hierarchy).
func TestIntervalsConcurrent(t *testing.T) {
	v := New()
	h := v.MustAttribute("data")
	h.MustAdd("", "root")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix := h.Intervals()
				root, ok := ix.Interval("root")
				if !ok || root.Len() != ix.LeafCount() {
					t.Errorf("inconsistent snapshot: root %v leaves %d", root, ix.LeafCount())
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		h.MustAdd("root", fmt.Sprintf("n%d", i))
	}
	close(stop)
	wg.Wait()
}

// Empty reports whether the span covers no leaves.
func (s Span) Empty() bool { return s.Hi <= s.Lo }

// Overlaps reports whether the spans share at least one leaf.
func (s Span) Overlaps(o Span) bool { return s.Lo < o.Hi && o.Lo < s.Hi }

// Contains reports whether o lies entirely inside s.
func (s Span) Contains(o Span) bool { return s.Lo <= o.Lo && o.Hi <= s.Hi }

// Generation returns the vocabulary generation the snapshot was built
// at; it is stale once Vocabulary.Generation has moved past it.
func (ix *Intervals) Generation() uint64 { return ix.gen }
