// Package treerec adapts PRIMA's core concepts to hierarchical,
// XML-like legacy records — the "natural evolution" the paper's
// conclusion calls for ("legacy systems employ hierarchical, XML-like
// structures. Thus, the natural evolution for PRIMA is to adapt the
// core concepts and technology to the tree-based structures").
//
// A Record is an element tree; a Mapping assigns privacy-vocabulary
// data categories to element paths; Redact prunes the subtrees whose
// category a policy decision denies, which is the tree-shaped
// equivalent of HDB Active Enforcement's column masking.
package treerec

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/vocab"
)

// Node is one element of a hierarchical record.
type Node struct {
	Name     string
	Value    string // text content for leaves
	Children []*Node
}

// Walk visits every node depth-first with its slash-separated path.
func (n *Node) Walk(fn func(path string, node *Node)) {
	var rec func(prefix string, m *Node)
	rec = func(prefix string, m *Node) {
		path := prefix + "/" + m.Name
		fn(path, m)
		for _, c := range m.Children {
			rec(path, c)
		}
	}
	rec("", n)
}

// ParseXML reads an XML document into a Record tree. Attributes are
// folded into child nodes named "@attr" so mappings can target them.
func ParseXML(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("treerec: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Name: t.Name.Local}
			for _, a := range t.Attr {
				n.Children = append(n.Children, &Node{Name: "@" + a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("treerec: multiple root elements")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("treerec: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				text := strings.TrimSpace(string(t))
				if text != "" {
					stack[len(stack)-1].Value += text
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("treerec: empty document")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("treerec: unclosed elements")
	}
	return root, nil
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Node, error) { return ParseXML(strings.NewReader(s)) }

// WriteXML renders the record back to XML (attributes re-emitted as
// elements named without the leading @; lossy but sufficient for
// inspection and tests).
func (n *Node) WriteXML(w io.Writer) error {
	var rec func(m *Node, depth int) error
	rec = func(m *Node, depth int) error {
		ind := strings.Repeat("  ", depth)
		name := strings.TrimPrefix(m.Name, "@")
		if len(m.Children) == 0 {
			_, err := fmt.Fprintf(w, "%s<%s>%s</%s>\n", ind, name, xmlEscape(m.Value), name)
			return err
		}
		if _, err := fmt.Fprintf(w, "%s<%s>\n", ind, name); err != nil {
			return err
		}
		if m.Value != "" {
			if _, err := fmt.Fprintf(w, "%s  %s\n", ind, xmlEscape(m.Value)); err != nil {
				return err
			}
		}
		for _, c := range m.Children {
			if err := rec(c, depth+1); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>\n", ind, name)
		return err
	}
	return rec(n, 0)
}

func xmlEscape(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

// Mapping assigns data categories to element paths. Patterns are
// slash-separated name sequences matched case-insensitively against
// the end of a node's path; a leading "//" (the default) anchors
// nowhere, so "demographics/address" matches any address element
// under a demographics element. "*" matches one path segment.
type Mapping struct {
	rules []mappingRule
	v     *vocab.Vocabulary
}

type mappingRule struct {
	segments []string
	category string
}

// NewMapping builds a mapping validated against the vocabulary's data
// hierarchy.
func NewMapping(v *vocab.Vocabulary) *Mapping { return &Mapping{v: v} }

// Add registers pattern -> category.
func (m *Mapping) Add(pattern, category string) error {
	segs := splitPath(pattern)
	if len(segs) == 0 {
		return fmt.Errorf("treerec: empty mapping pattern")
	}
	if h := m.v.Hierarchy("data"); h != nil && !h.Contains(category) {
		return fmt.Errorf("treerec: category %q not in vocabulary", category)
	}
	m.rules = append(m.rules, mappingRule{segments: segs, category: category})
	return nil
}

func splitPath(p string) []string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		s = strings.TrimSpace(s)
		if s != "" {
			out = append(out, strings.ToLower(s))
		}
	}
	return out
}

// Category returns the data category mapped to path, if any. The most
// specific (longest) matching pattern wins.
func (m *Mapping) Category(path string) (string, bool) {
	segs := splitPath(path)
	best := -1
	bestScore := -1
	for i, r := range m.rules {
		if !suffixMatch(segs, r.segments) {
			continue
		}
		// Longer patterns are more specific; among equal lengths,
		// literal segments beat wildcards.
		score := len(r.segments) * 100
		for _, s := range r.segments {
			if s != "*" {
				score++
			}
		}
		if score > bestScore {
			best = i
			bestScore = score
		}
	}
	if best < 0 {
		return "", false
	}
	return m.rules[best].category, true
}

// suffixMatch reports whether pattern matches the tail of path
// segments, with "*" matching any single segment.
func suffixMatch(path, pattern []string) bool {
	if len(pattern) > len(path) {
		return false
	}
	off := len(path) - len(pattern)
	for i, p := range pattern {
		if p != "*" && p != path[off+i] {
			return false
		}
	}
	return true
}

// Classify lists the distinct data categories present in the record,
// sorted. Categories apply to whole subtrees: descendants of a mapped
// node inherit its category unless a more specific mapping overrides.
func (m *Mapping) Classify(rec *Node) []string {
	set := map[string]bool{}
	rec.Walk(func(path string, _ *Node) {
		if cat, ok := m.Category(path); ok {
			set[cat] = true
		}
	})
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Redaction is the outcome of Redact.
type Redaction struct {
	Record  *Node    // the pruned copy
	Removed []string // paths of pruned subtrees, sorted
	Kept    []string // categories that remained visible, sorted
}

// Redact returns a copy of the record with every subtree whose
// category is denied by the decision function removed. Unmapped
// elements are retained (structure, identifiers).
func (m *Mapping) Redact(rec *Node, allowed func(category string) bool) Redaction {
	var removed []string
	keptSet := map[string]bool{}
	var prune func(n *Node, prefix string) *Node
	prune = func(n *Node, prefix string) *Node {
		path := prefix + "/" + n.Name
		if cat, ok := m.Category(path); ok {
			if !allowed(cat) {
				removed = append(removed, path)
				return nil
			}
			keptSet[cat] = true
		}
		out := &Node{Name: n.Name, Value: n.Value}
		for _, c := range n.Children {
			if kept := prune(c, path); kept != nil {
				out.Children = append(out.Children, kept)
			}
		}
		return out
	}
	pruned := prune(rec, "")
	if pruned == nil {
		pruned = &Node{Name: rec.Name} // the root itself was denied
	}
	sort.Strings(removed)
	kept := make([]string, 0, len(keptSet))
	for c := range keptSet {
		kept = append(kept, c)
	}
	sort.Strings(kept)
	return Redaction{Record: pruned, Removed: removed, Kept: kept}
}
