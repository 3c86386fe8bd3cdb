package vocab

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// The text format is indentation based. Top-level (column 0) lines name
// attributes; each additional two spaces (or one tab) of indentation
// descends one level in the value hierarchy. Blank lines and lines
// starting with '#' are ignored. Example:
//
//	data
//	  demographic
//	    address
//	    gender
//	  clinical
//	    referral
//	purpose
//	  treatment

// ParseText reads a vocabulary from its textual representation.
func ParseText(r io.Reader) (*Vocabulary, error) {
	v := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	type level struct {
		depth int
		value string // "" at attribute level
	}
	var (
		stack   []level
		curAttr *Hierarchy
		lineNo  int
	)
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		depth, err := indentDepth(raw)
		if err != nil {
			return nil, fmt.Errorf("vocab: line %d: %w", lineNo, err)
		}
		// Values may carry an inline child list: "demographic: address gender".
		name, inline, hasInline := strings.Cut(trimmed, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("vocab: line %d: missing name", lineNo)
		}

		if depth == 0 {
			h, err := v.AddAttribute(name)
			if err != nil {
				return nil, fmt.Errorf("vocab: line %d: %w", lineNo, err)
			}
			curAttr = h
			stack = stack[:0]
			stack = append(stack, level{depth: 0, value: ""})
		} else {
			if curAttr == nil {
				return nil, fmt.Errorf("vocab: line %d: value %q before any attribute", lineNo, name)
			}
			if depth > stack[len(stack)-1].depth+1 {
				return nil, fmt.Errorf("vocab: line %d: indentation of %q jumps more than one level", lineNo, name)
			}
			for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("vocab: line %d: bad indentation for %q", lineNo, name)
			}
			parent := stack[len(stack)-1].value
			if err := curAttr.Add(parent, name); err != nil {
				return nil, fmt.Errorf("vocab: line %d: %w", lineNo, err)
			}
			stack = append(stack, level{depth: depth, value: name})
		}
		if hasInline {
			if curAttr == nil {
				return nil, fmt.Errorf("vocab: line %d: inline values before any attribute", lineNo)
			}
			parent := name
			if depth == 0 {
				parent = ""
			}
			for _, child := range strings.Fields(inline) {
				if err := curAttr.Add(parent, child); err != nil {
					return nil, fmt.Errorf("vocab: line %d: %w", lineNo, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("vocab: read: %w", err)
	}
	return v, nil
}

func indentDepth(line string) (int, error) {
	spaces := 0
	for _, r := range line {
		switch r {
		case ' ':
			spaces++
		case '\t':
			spaces += 2
		default:
			if spaces%2 != 0 {
				return 0, fmt.Errorf("odd indentation (%d spaces); use two spaces per level", spaces)
			}
			return spaces / 2, nil
		}
	}
	return 0, nil
}

// WriteText writes the vocabulary in the text format accepted by
// ParseText.
func (v *Vocabulary) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, attr := range v.Attributes() {
		h := v.Hierarchy(attr)
		if _, err := fmt.Fprintln(bw, h.attr); err != nil {
			return err
		}
		var walk func(n *Node, depth int) error
		walk = func(n *Node, depth int) error {
			if _, err := fmt.Fprintf(bw, "%s%s\n", strings.Repeat("  ", depth), n.value); err != nil {
				return err
			}
			for _, c := range n.children {
				if err := walk(c, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		for _, r := range h.roots {
			if err := walk(r, 1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// TextString renders the vocabulary in the text format.
func (v *Vocabulary) TextString() string {
	var b strings.Builder
	if err := v.WriteText(&b); err != nil {
		// strings.Builder writes cannot fail.
		panic("vocab: TextString: " + err.Error())
	}
	return b.String()
}

// jsonNode mirrors Node for (de)serialization.
type jsonNode struct {
	Value    string     `json:"value"`
	Children []jsonNode `json:"children,omitempty"`
}

type jsonAttr struct {
	Attr   string     `json:"attr"`
	Values []jsonNode `json:"values,omitempty"`
}

// MarshalJSON encodes the vocabulary as an ordered list of attribute
// hierarchies.
func (v *Vocabulary) MarshalJSON() ([]byte, error) {
	var out []jsonAttr
	for _, attr := range v.Attributes() {
		h := v.Hierarchy(attr)
		var conv func(n *Node) jsonNode
		conv = func(n *Node) jsonNode {
			jn := jsonNode{Value: n.value}
			for _, c := range n.children {
				jn.Children = append(jn.Children, conv(c))
			}
			return jn
		}
		ja := jsonAttr{Attr: h.attr}
		for _, r := range h.roots {
			ja.Values = append(ja.Values, conv(r))
		}
		out = append(out, ja)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a vocabulary produced by MarshalJSON.
func (v *Vocabulary) UnmarshalJSON(data []byte) error {
	var in []jsonAttr
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("vocab: %w", err)
	}
	nv := New()
	for _, ja := range in {
		h, err := nv.AddAttribute(ja.Attr)
		if err != nil {
			return err
		}
		var add func(parent string, jn jsonNode) error
		add = func(parent string, jn jsonNode) error {
			if err := h.Add(parent, jn.Value); err != nil {
				return err
			}
			for _, c := range jn.Children {
				if err := add(jn.Value, c); err != nil {
					return err
				}
			}
			return nil
		}
		for _, root := range ja.Values {
			if err := add("", root); err != nil {
				return err
			}
		}
	}
	// Install the decoded forest field-wise (the Vocabulary carries a
	// mutex and an atomic counter, so the struct itself must not be
	// copied), repointing each hierarchy at its new owner. The
	// generation bumps past both counters so caches keyed on the old
	// vocabulary's generation can never validate against the new one.
	v.mu.Lock()
	for _, h := range nv.attrs {
		h.owner = v
	}
	v.attrs = nv.attrs
	v.order = nv.order
	v.gen.Add(nv.gen.Load() + 1)
	v.mu.Unlock()
	return nil
}
