package treerec

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/hdb"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// Enforcer is the tree-shaped counterpart of HDB Active Enforcement +
// Compliance Auditing: requests for hierarchical records are answered
// with policy-redacted copies, every touched data category is
// audited, and the break-the-glass path returns the full record with
// an exception-status audit trail. Because it emits the same audit
// schema, the standard refinement loop (Algorithms 2–6) runs
// unchanged over legacy tree-based systems — the adaptation the
// paper's conclusion calls for.
type Enforcer struct {
	v       *vocab.Vocabulary
	ps      *policy.Policy
	mapping *Mapping
	log     *audit.Log
	clock   func() time.Time
}

// NewEnforcer builds a tree-record enforcer. log may be nil.
func NewEnforcer(v *vocab.Vocabulary, ps *policy.Policy, m *Mapping, log *audit.Log) *Enforcer {
	return &Enforcer{v: v, ps: ps, mapping: m, log: log, clock: time.Now}
}

// SetClock overrides the audit timestamp source.
func (e *Enforcer) SetClock(clock func() time.Time) { e.clock = clock }

// Fetch returns the record redacted for (principal, purpose): every
// subtree whose category the policy denies is pruned, and each
// category that remains visible is audited as a regular access. When
// nothing at all is visible, Fetch fails with hdb.ErrDenied so the
// caller can fall back to BreakGlass.
func (e *Enforcer) Fetch(p hdb.Principal, purpose string, rec *Node) (Redaction, error) {
	if err := p.Validate(); err != nil {
		return Redaction{}, err
	}
	if strings.TrimSpace(purpose) == "" {
		return Redaction{}, fmt.Errorf("treerec: a purpose is required")
	}
	rg := policy.SharedSym.Range(e.ps, e.v)
	red := e.mapping.Redact(rec, func(category string) bool {
		return rg.CoversTriple(e.v, category, purpose, p.Role)
	})
	if len(red.Kept) == 0 && len(e.mapping.Classify(rec)) > 0 {
		if err := e.auditCats(p, purpose, "", e.mapping.Classify(rec), audit.Deny, audit.Regular); err != nil {
			return Redaction{}, err
		}
		return red, fmt.Errorf("%w: no visible categories in record for %s by %s",
			hdb.ErrDenied, purpose, p.Role)
	}
	if err := e.auditCats(p, purpose, "", red.Kept, audit.Allow, audit.Regular); err != nil {
		return Redaction{}, err
	}
	return red, nil
}

// BreakGlass returns the full record, auditing every contained
// category as exception-based access with the mandatory reason.
func (e *Enforcer) BreakGlass(p hdb.Principal, purpose, reason string, rec *Node) (*Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if strings.TrimSpace(purpose) == "" {
		return nil, fmt.Errorf("treerec: a purpose is required")
	}
	if strings.TrimSpace(reason) == "" {
		return nil, fmt.Errorf("treerec: break-glass access requires a reason")
	}
	cats := e.mapping.Classify(rec)
	if err := e.auditCats(p, purpose, reason, cats, audit.Allow, audit.Exception); err != nil {
		return nil, err
	}
	return rec.Clone(), nil
}

// auditCats appends one entry per category and fails on the first
// append error: an access that cannot be audited must not proceed.
func (e *Enforcer) auditCats(p hdb.Principal, purpose, reason string, cats []string, op audit.Op, st audit.Status) error {
	if e.log == nil {
		return nil
	}
	now := e.clock()
	for _, cat := range cats {
		err := e.log.Append(audit.Entry{
			Time:       now,
			Op:         op,
			User:       p.User,
			Data:       cat,
			Purpose:    purpose,
			Authorized: p.Role,
			Status:     st,
			Reason:     reason,
		})
		if err != nil {
			return fmt.Errorf("treerec: audit append: %w", err)
		}
	}
	return nil
}
