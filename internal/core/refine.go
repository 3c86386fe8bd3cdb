package core

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// DefaultAttrs is the paper's default analysis attribute set A: the
// policy-relevant projection of the audit schema.
var DefaultAttrs = []string{"data", "purpose", "authorized"}

// Options parameterizes the refinement pipeline (Algorithm 4's f and
// c, plus extraction pluggability).
type Options struct {
	// Attrs is the attribute subset A of the audit schema to analyse.
	// Valid attributes: data, purpose, authorized, user, op, status.
	// Defaults to DefaultAttrs.
	Attrs []string
	// MinSupport is the threshold frequency f (paper default 5). The
	// paper's prose says patterns must occur "at least f" times while
	// Algorithm 5 writes COUNT(*) > f; the §5 walk-through (a pattern
	// with exactly 5 occurrences discovered with f = 5) requires the
	// ≥ reading, which is the default. Set StrictGreater for the
	// literal Algorithm 5 comparator.
	MinSupport int
	// MinDistinctUsers is the condition c: COUNT(DISTINCT user) must
	// exceed MinDistinctUsers - 1, i.e. at least this many distinct
	// users. Paper default: 2 (COUNT(DISTINCT user) > 1).
	MinDistinctUsers int
	// StrictGreater switches the support comparator to COUNT(*) > f.
	StrictGreater bool
	// Extractor performs the data analysis; nil selects the
	// SQL-backed extractor (Algorithm 5 verbatim on minidb).
	Extractor PatternExtractor
}

// withDefaults normalizes options.
func (o Options) withDefaults() Options {
	if len(o.Attrs) == 0 {
		o.Attrs = DefaultAttrs
	}
	if o.MinSupport == 0 {
		o.MinSupport = 5
	}
	if o.MinDistinctUsers == 0 {
		o.MinDistinctUsers = 2
	}
	if o.Extractor == nil {
		o.Extractor = SQLExtractor{}
	}
	return o
}

// validAttrs are the audit-schema attributes an analysis may group by.
var validAttrs = map[string]bool{
	"data": true, "purpose": true, "authorized": true,
	"user": true, "op": true, "status": true,
}

func checkAttrs(attrs []string) error {
	seen := map[string]bool{}
	for _, a := range attrs {
		k := vocab.Norm(a)
		if !validAttrs[k] {
			return fmt.Errorf("core: invalid analysis attribute %q", a)
		}
		if seen[k] {
			return fmt.Errorf("core: duplicate analysis attribute %q", a)
		}
		seen[k] = true
	}
	return nil
}

// Pattern is one undocumented-practice candidate produced by the
// extraction phase: a ground rule over the analysis attributes plus
// its evidence.
type Pattern struct {
	Rule          policy.Rule
	Support       int // occurrences in Practice
	DistinctUsers int
	FirstSeen     time.Time
	LastSeen      time.Time
}

// String renders the pattern with its evidence.
func (p Pattern) String() string {
	return fmt.Sprintf("%s (support %d, %d users)", p.Rule, p.Support, p.DistinctUsers)
}

// PatternExtractor is the pluggable data-analysis interface of
// Algorithm 4 ("the data analysis routine has a well-defined
// interface that allows the extractPatterns algorithm to evolve").
type PatternExtractor interface {
	Extract(practice []audit.Entry, opts Options) ([]Pattern, error)
}

// Filter is Algorithm 3: it returns the informal-practice entries of
// the audit policy — the rows recorded with status 0 (exception-based
// access). Denied attempts (op = 0) are prohibitions, not practice,
// and are removed as Algorithm 2's "Filter(P_AL) (returns the
// non-prohibitions in policy P)" requires.
func Filter(entries []audit.Entry) []audit.Entry {
	var practice []audit.Entry
	for _, e := range entries {
		if e.Status == audit.Exception && e.Op == audit.Allow {
			practice = append(practice, e)
		}
	}
	return practice
}

// ExtractPatterns is Algorithm 4: it runs the configured data
// analysis over the practice entries.
func ExtractPatterns(practice []audit.Entry, opts Options) ([]Pattern, error) {
	opts = opts.withDefaults()
	if err := checkAttrs(opts.Attrs); err != nil {
		return nil, err
	}
	return opts.Extractor.Extract(practice, opts)
}

// Prune is Algorithm 6: it removes the patterns already covered by
// the policy store, returning the complement of the pattern range
// with respect to Range(P_PS). The containment test
// Range_pattern ⊆ Range_PS is a cardinality comparison over the
// interval algebra — no pattern is ever ground-expanded, so there is
// no range limit to exceed. The error result is always nil.
func Prune(patterns []Pattern, ps *policy.Policy, v *vocab.Vocabulary) ([]Pattern, error) {
	srg := policy.SharedSym.Range(ps, v)
	var useful []Pattern
	for _, p := range patterns {
		sr, ok := policy.CompileRule(p.Rule, v)
		if !ok {
			// The zero rule grounds to the single empty rule, which no
			// store range contains, so it is always kept.
			useful = append(useful, p)
			continue
		}
		if !srg.Covers(sr) {
			useful = append(useful, p)
		}
	}
	return useful, nil
}

// Refinement is Algorithm 2: Filter, then ExtractPatterns, then
// Prune. It returns the useful patterns that a privacy officer should
// review for inclusion in the policy store.
func Refinement(ps *policy.Policy, entries []audit.Entry, v *vocab.Vocabulary, opts Options) ([]Pattern, error) {
	practice := Filter(entries)                      // line 1
	patterns, err := ExtractPatterns(practice, opts) // line 2
	if err != nil {
		return nil, err
	}
	return Prune(patterns, ps, v) // line 3
}
