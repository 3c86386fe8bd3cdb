// Package vocab implements the privacy policy vocabulary of PRIMA
// (Bhatti & Grandison, 2007), Figure 1: a forest of value hierarchies,
// one per policy attribute (data, purpose, authorized, ...).
//
// A value is "ground" (Definition 2) when it is atomic with respect to
// the vocabulary, i.e. it has no children in its attribute's hierarchy.
// A composite value can always be expanded into the set of ground
// values derivable from it (Definition 3); that set is called its
// ground set and is written RT' in the paper.
//
// Concurrency: a Vocabulary carries one RWMutex shared by all of its
// hierarchies. The value-level query methods (Contains, IsGround,
// GroundSet, Subsumes, ...) take the read lock and Add takes the write
// lock, so policy refinement can grow the vocabulary while the
// enforcement path consults it. Structural walks over raw *Node trees
// (Roots + Node.Children, used by the codecs and Merge) are not locked
// — they require the vocabulary to be quiescent.
package vocab

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Norm canonicalizes an attribute or value for comparison: values in
// policies, audit logs and vocabularies frequently differ only in case
// or surrounding whitespace ("Referral" vs "referral").
func Norm(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// Node is a single value in an attribute hierarchy. Direct Node
// traversal is unsynchronized; callers walking node trees must hold
// the vocabulary quiescent (the codecs and Merge do).
type Node struct {
	value    string // display form, as first registered
	parent   *Node  // nil for top-level values
	children []*Node
}

// Value returns the display form of the node's value.
func (n *Node) Value() string { return n.value }

// Parent returns the parent node, or nil for a top-level value.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the direct children of the node. The returned slice
// must not be modified.
func (n *Node) Children() []*Node { return n.children }

// IsGround reports whether the value is atomic with respect to the
// vocabulary (Definition 2): it has no children.
func (n *Node) IsGround() bool { return len(n.children) == 0 }

// Hierarchy is the value hierarchy for one attribute. It locks through
// its owning Vocabulary, so one lock guards the whole forest.
type Hierarchy struct {
	owner *Vocabulary // lock + generation counter live on the owner
	attr  string      // display form
	roots []*Node
	nodes map[string]*Node // by Norm(value)

	// groundMemo caches GroundSet results by Norm(value). Ground-set
	// expansion (walk + sort) sits under every Range computation
	// (Definition 8); the memo makes repeat expansions O(1). Entries
	// are invalidated wholesale on Add. Only registered values are
	// memoized, so the memo is bounded by the hierarchy size. A
	// sync.Map because range expansion reads it from worker
	// goroutines concurrently.
	groundMemo sync.Map // string -> []string

	// icache publishes the Euler-tour interval numbering (interval.go),
	// validated against the owner's generation counter.
	icache intervalCache
}

// Attr returns the display form of the attribute name.
func (h *Hierarchy) Attr() string { return h.attr }

// Roots returns the top-level values of the hierarchy. Walking the
// returned nodes is unsynchronized; see the package comment.
func (h *Hierarchy) Roots() []*Node {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	return h.roots
}

// Len returns the number of values registered in the hierarchy.
func (h *Hierarchy) Len() int {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	return len(h.nodes)
}

// Node returns the node for value, or nil if the value is unknown.
// Walking the returned node is unsynchronized; see the package comment.
func (h *Hierarchy) Node(value string) *Node {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	return h.nodes[Norm(value)]
}

// Add registers value under parent. An empty parent registers a
// top-level value. It is an error to add a value twice or to reference
// an unknown parent.
func (h *Hierarchy) Add(parent, value string) error {
	key := Norm(value)
	if key == "" {
		return fmt.Errorf("vocab: empty value for attribute %q", h.attr)
	}
	h.owner.mu.Lock()
	defer h.owner.mu.Unlock()
	if _, ok := h.nodes[key]; ok {
		return fmt.Errorf("vocab: duplicate value %q for attribute %q", value, h.attr)
	}
	n := &Node{value: strings.TrimSpace(value)}
	if Norm(parent) == "" {
		h.roots = append(h.roots, n)
	} else {
		p, ok := h.nodes[Norm(parent)]
		if !ok {
			return fmt.Errorf("vocab: unknown parent %q for value %q (attribute %q)", parent, value, h.attr)
		}
		n.parent = p
		p.children = append(p.children, n)
	}
	h.nodes[key] = n
	h.owner.gen.Add(1)
	// Adding a value can change the ground set of every ancestor (and
	// turns a former leaf composite); drop the whole memo.
	h.groundMemo.Range(func(k, _ any) bool {
		h.groundMemo.Delete(k)
		return true
	})
	return nil
}

// MustAdd is Add that panics on error; intended for static sample data.
func (h *Hierarchy) MustAdd(parent, value string) {
	if err := h.Add(parent, value); err != nil {
		panic(err)
	}
}

// Contains reports whether value is registered in the hierarchy.
func (h *Hierarchy) Contains(value string) bool {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	_, ok := h.nodes[Norm(value)]
	return ok
}

// IsGround reports whether value is ground (Definition 2). A value
// that is not registered in the vocabulary cannot be subdivided by it
// and is therefore treated as ground.
func (h *Hierarchy) IsGround(value string) bool {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	n := h.nodes[Norm(value)]
	return n == nil || len(n.children) == 0
}

// GroundSet returns the ground values derivable from value — the set
// RT' of Definition 3 — in deterministic (sorted) order. For a ground
// value (including values unknown to the vocabulary) it returns the
// value itself. Results for registered values are memoized; the
// returned slice must not be modified.
func (h *Hierarchy) GroundSet(value string) []string {
	key := Norm(value)
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	n := h.nodes[key]
	if n == nil {
		return []string{strings.TrimSpace(value)}
	}
	if cached, ok := h.groundMemo.Load(key); ok {
		return cached.([]string)
	}
	var out []string
	var walk func(*Node)
	walk = func(m *Node) {
		if m.IsGround() {
			out = append(out, m.value)
			return
		}
		for _, c := range m.children {
			walk(c)
		}
	}
	walk(n)
	sort.Strings(out)
	h.groundMemo.Store(key, out)
	return out
}

// Subsumes reports whether b lies in the subtree rooted at a
// (inclusive). Unknown values subsume only themselves.
func (h *Hierarchy) Subsumes(a, b string) bool {
	ka, kb := Norm(a), Norm(b)
	if ka == kb {
		return true
	}
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	nb := h.nodes[kb]
	for nb != nil {
		if Norm(nb.value) == ka {
			return true
		}
		nb = nb.parent
	}
	return false
}

// Leaves returns every ground value in the hierarchy, sorted.
func (h *Hierarchy) Leaves() []string {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	var out []string
	for _, n := range h.nodes {
		if len(n.children) == 0 {
			out = append(out, n.value)
		}
	}
	sort.Strings(out)
	return out
}

// Values returns every value in the hierarchy, sorted.
func (h *Hierarchy) Values() []string {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	out := make([]string, 0, len(h.nodes))
	for _, n := range h.nodes {
		out = append(out, n.value)
	}
	sort.Strings(out)
	return out
}

// Depth returns the depth of value (top-level values have depth 1);
// zero for unknown values.
func (h *Hierarchy) Depth(value string) int {
	h.owner.mu.RLock()
	defer h.owner.mu.RUnlock()
	n := h.nodes[Norm(value)]
	if n == nil {
		return 0
	}
	d := 1
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Vocabulary is a set of attribute hierarchies (paper Figure 1).
type Vocabulary struct {
	mu    sync.RWMutex
	attrs map[string]*Hierarchy // by Norm(attr)
	order []string              // display forms, registration order
	// gen counts mutations (attribute or value additions) and is read
	// lock-free by derived-artifact caches; see Generation.
	gen atomic.Uint64
}

// New returns an empty vocabulary.
func New() *Vocabulary {
	return &Vocabulary{attrs: make(map[string]*Hierarchy)}
}

// AddAttribute registers a new attribute and returns its hierarchy.
func (v *Vocabulary) AddAttribute(attr string) (*Hierarchy, error) {
	key := Norm(attr)
	if key == "" {
		return nil, fmt.Errorf("vocab: empty attribute name")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.addAttributeLocked(key, attr)
}

func (v *Vocabulary) addAttributeLocked(key, attr string) (*Hierarchy, error) {
	if _, ok := v.attrs[key]; ok {
		return nil, fmt.Errorf("vocab: duplicate attribute %q", attr)
	}
	h := &Hierarchy{owner: v, attr: strings.TrimSpace(attr), nodes: make(map[string]*Node)}
	v.attrs[key] = h
	v.order = append(v.order, h.attr)
	v.gen.Add(1)
	return h, nil
}

// MustAttribute returns the hierarchy for attr, creating it if needed.
func (v *Vocabulary) MustAttribute(attr string) *Hierarchy {
	key := Norm(attr)
	v.mu.Lock()
	defer v.mu.Unlock()
	if h := v.attrs[key]; h != nil {
		return h
	}
	h, err := v.addAttributeLocked(key, attr)
	if err != nil {
		panic(err)
	}
	return h
}

// Hierarchy returns the hierarchy for attr, or nil if unregistered.
func (v *Vocabulary) Hierarchy(attr string) *Hierarchy {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.attrs[Norm(attr)]
}

// Attributes returns the registered attribute names in registration order.
func (v *Vocabulary) Attributes() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.order))
	copy(out, v.order)
	return out
}

// IsGround reports whether (attr, value) is ground (Definition 2).
// Values of unregistered attributes are atomic by definition.
func (v *Vocabulary) IsGround(attr, value string) bool {
	h := v.Hierarchy(attr)
	return h == nil || h.IsGround(value)
}

// GroundSet returns the ground set of (attr, value) (Definition 3).
func (v *Vocabulary) GroundSet(attr, value string) []string {
	h := v.Hierarchy(attr)
	if h == nil {
		return []string{strings.TrimSpace(value)}
	}
	return h.GroundSet(value)
}

// Subsumes reports whether (attr, a) subsumes (attr, b).
func (v *Vocabulary) Subsumes(attr, a, b string) bool {
	h := v.Hierarchy(attr)
	if h == nil {
		return Norm(a) == Norm(b)
	}
	return h.Subsumes(a, b)
}

// Equivalent reports whether (attr, a) and (attr, b) are equivalent in
// the sense of Definition 4: their ground sets intersect.
func (v *Vocabulary) Equivalent(attr, a, b string) bool {
	h := v.Hierarchy(attr)
	if h == nil {
		return Norm(a) == Norm(b)
	}
	ga := h.GroundSet(a)
	gb := h.GroundSet(b)
	set := make(map[string]bool, len(ga))
	for _, x := range ga {
		set[Norm(x)] = true
	}
	for _, y := range gb {
		if set[Norm(y)] {
			return true
		}
	}
	return false
}

// Generation returns a counter that increases on every mutation of
// the vocabulary — adding an attribute or adding a value to any
// hierarchy. Derived-artifact caches (policy.SymCache, the
// enforcement decision snapshot) use it to detect staleness without
// walking the forest; the read is a single lock-free atomic load. The
// vocabulary has no removal operations, so equal generations imply an
// unchanged vocabulary.
func (v *Vocabulary) Generation() uint64 {
	return v.gen.Load()
}
