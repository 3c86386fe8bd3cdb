package policy

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ParseRule parses a rule from its compact text form, a list of
// attr=value pairs separated by '&' or ',':
//
//	data=referral & purpose=treatment & authorized=nurse
func ParseRule(s string) (Rule, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == '&' || r == ',' })
	var terms []Term
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		attr, value, ok := strings.Cut(f, "=")
		if !ok {
			return Rule{}, fmt.Errorf("policy: term %q is not attr=value", f)
		}
		attr = strings.TrimSpace(attr)
		value = strings.TrimSpace(value)
		if strings.ContainsAny(attr, " \t") || strings.ContainsAny(value, " \t") {
			return Rule{}, fmt.Errorf("policy: term %q: attribute and value must be single tokens", f)
		}
		// '#' opens a comment in the policy text form; an attribute
		// starting with it cannot round-trip (the term may sort to the
		// start of the line, where the re-parse drops the whole rule).
		if strings.HasPrefix(attr, "#") {
			return Rule{}, fmt.Errorf("policy: term %q: attribute may not start with '#'", f)
		}
		terms = append(terms, Term{Attr: attr, Value: value})
	}
	if len(terms) == 0 {
		return Rule{}, fmt.Errorf("policy: empty rule %q", s)
	}
	return NewRule(terms...)
}

// Compact renders the rule in the form accepted by ParseRule.
func (r Rule) Compact() string {
	parts := make([]string, len(r.terms))
	for i, t := range r.terms {
		parts[i] = t.Attr + "=" + t.Value
	}
	return strings.Join(parts, " & ")
}

// ParsePolicy reads a policy in text form: one rule per line in
// ParseRule syntax; blank lines and '#' comments ignored.
func ParsePolicy(name string, r io.Reader) (*Policy, error) {
	p := New(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("policy: line %d: %w", lineNo, err)
		}
		p.Add(rule)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("policy: read: %w", err)
	}
	return p, nil
}

// WriteText writes the policy in the form accepted by ParsePolicy.
// Name and rules are snapshotted together so a concurrent
// UnmarshalJSON cannot produce a torn header/body combination.
func (p *Policy) WriteText(w io.Writer) error {
	p.mu.RLock()
	name := p.Name
	rules := append([]Rule(nil), p.rules...)
	p.mu.RUnlock()

	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# policy %s (%d rules)\n", name, len(rules)); err != nil {
		return err
	}
	for _, r := range rules {
		if _, err := fmt.Fprintln(bw, r.Compact()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MarshalJSON encodes the rule as its term list.
func (r Rule) MarshalJSON() ([]byte, error) { return json.Marshal(r.terms) }

// UnmarshalJSON decodes and normalizes a rule from a term list.
func (r *Rule) UnmarshalJSON(data []byte) error {
	var terms []Term
	if err := json.Unmarshal(data, &terms); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	nr, err := NewRule(terms...)
	if err != nil {
		return err
	}
	*r = nr
	return nil
}

type jsonPolicy struct {
	Name  string `json:"name"`
	Rules []Rule `json:"rules"`
}

// MarshalJSON encodes the policy with its name and rules, snapshotted
// under one read lock.
func (p *Policy) MarshalJSON() ([]byte, error) {
	p.mu.RLock()
	jp := jsonPolicy{Name: p.Name, Rules: append([]Rule(nil), p.rules...)}
	p.mu.RUnlock()
	return json.Marshal(jp)
}

// UnmarshalJSON decodes a policy, deduplicating rules. Name and rules
// are replaced under a single write lock so concurrent readers never
// observe the new name with the old rules.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var jp jsonPolicy
	if err := json.Unmarshal(data, &jp); err != nil {
		return fmt.Errorf("policy: %w", err)
	}
	np := New(jp.Name)
	for _, r := range jp.Rules {
		np.Add(r)
	}
	p.mu.Lock()
	p.Name = np.Name
	p.rules = append(p.rules[:0:0], np.rules...)
	p.index = np.index
	p.version.Add(1)
	p.mu.Unlock()
	return nil
}
