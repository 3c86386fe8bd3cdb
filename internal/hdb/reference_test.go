package hdb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/report"
)

// This file holds the reference enforcement interpreter: a direct
// transcription of the Active Enforcement contract (paper §4.1,
// Figures 4–5) that re-parses, re-analyzes and rewrites every query.
// The compiled path in fastpath.go is what Query and BreakGlass run;
// the differential suite in fastpath_test.go holds it to byte-identical
// results, errors, Access reports and audit entries against this one.

// referenceQuery is Query on the reference interpreter.
func (e *Enforcer) referenceQuery(p Principal, purpose, sql string) (*minidb.Result, *Access, error) {
	return e.runSlow(p, purpose, "", sql, false)
}

// referenceBreakGlass is BreakGlass on the reference interpreter.
func (e *Enforcer) referenceBreakGlass(p Principal, purpose, reason, sql string) (*minidb.Result, *Access, error) {
	if strings.TrimSpace(reason) == "" {
		return nil, nil, fmt.Errorf("hdb: break-glass access requires a reason")
	}
	return e.runSlow(p, purpose, reason, sql, true)
}

// allowed checks (data category, purpose, role) against the policy
// store range. Ground triples — the overwhelmingly common case at
// enforcement time — are tested by canonical key without constructing
// a rule; composite runtime values fall back to requiring all their
// ground rules to be present.
func (e *Enforcer) allowed(rg *policy.Range, category, purpose, role string) bool {
	if e.v.IsGround("data", category) && e.v.IsGround("purpose", purpose) && e.v.IsGround("authorized", role) {
		return rg.ContainsKey(policy.TripleKey(category, purpose, role))
	}
	rule := policy.MustRule(
		policy.T("data", category),
		policy.T("purpose", purpose),
		policy.T("authorized", role),
	)
	grounds, truncated := rule.Groundings(e.v, policy.DefaultRangeLimit)
	if truncated {
		return false
	}
	for _, g := range grounds {
		if !rg.Contains(g) {
			return false
		}
	}
	return true
}

// runSlow is the reference interpreter: parse, expand, decide every
// category against the policy range, and rewrite the statement, all
// from scratch on each call.
func (e *Enforcer) runSlow(p Principal, purpose, reason, sql string, breakGlass bool) (*minidb.Result, *Access, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if strings.TrimSpace(purpose) == "" {
		return nil, nil, fmt.Errorf("hdb: a purpose is required (HIPAA purpose specification)")
	}
	if err := checkSQLLength(sql); err != nil {
		return nil, nil, err
	}
	st, err := minidb.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := st.(*minidb.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("hdb: only SELECT statements pass through enforcement")
	}
	if len(sel.Joins) > 0 {
		return nil, nil, fmt.Errorf("hdb: joins are not supported under enforcement; query one registered table at a time")
	}
	m, err := e.mapping(sel.Table)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := e.db.Table(sel.Table)
	if err != nil {
		return nil, nil, err
	}

	// Expand * so per-column decisions are possible.
	expandStar(sel, tbl)

	outCols := columnsOf(selectExprs(sel))
	otherCols := columnsOf(nonOutputExprs(sel))

	outCats := categoriesOf(outCols, m)
	otherCats := categoriesOf(otherCols, m)

	allCats := union(outCats, otherCats)
	acc := &Access{Categories: allCats, Exception: breakGlass}

	if !breakGlass {
		rg, err := policy.NewRange(e.ps, e.v, 0)
		if err != nil {
			return nil, nil, err
		}
		// Non-output use of a denied category rejects the query.
		for _, cat := range otherCats {
			if !e.allowed(rg, cat, purpose, p.Role) {
				acc.Denied = append(acc.Denied, cat)
			}
		}
		if len(acc.Denied) > 0 {
			e.audit(p, purpose, reason, acc, audit.Deny, acc.Denied)
			return nil, acc, fmt.Errorf("%w: %s not permitted for %s by %s",
				ErrDenied, strings.Join(acc.Denied, ", "), report.RedactValue(purpose), p.Role)
		}
		// Mask denied output columns.
		deniedOut := map[string]bool{}
		for _, cat := range outCats {
			if !e.allowed(rg, cat, purpose, p.Role) {
				deniedOut[cat] = true
			}
		}
		if len(deniedOut) > 0 {
			masked, kept := maskColumns(sel, m, deniedOut)
			acc.Masked = masked
			if kept == 0 {
				cats := keys(deniedOut)
				e.audit(p, purpose, reason, acc, audit.Deny, cats)
				return nil, acc, fmt.Errorf("%w: no permitted columns remain for %s by %s",
					ErrDenied, report.RedactValue(purpose), p.Role)
			}
		}
		// Consent filtering over the categories actually returned.
		if e.consent != nil && m.PatientCol != "" {
			excluded := map[string]bool{}
			for _, cat := range allCats {
				if deniedOut[cat] {
					continue
				}
				for _, pat := range e.consent.OptedOutAt(cat, purpose, time.Now()) {
					excluded[pat] = true
				}
			}
			if len(excluded) > 0 {
				addConsentPredicate(sel, m.PatientCol, keys(excluded))
				acc.OptedOut = len(excluded)
			}
		}
	}

	res, err := e.db.ExecStmt(sel)
	if err != nil {
		return nil, nil, err
	}
	grantedCats := allCats
	e.audit(p, purpose, reason, acc, audit.Allow, grantedCats)
	return res, acc, nil
}

// maskColumns nulls out the output items whose category is denied,
// keeping their names. Returns the masked column names and how many
// categorized output columns remain visible.
func maskColumns(sel *minidb.SelectStmt, m *TableMapping, denied map[string]bool) (masked []string, kept int) {
	for i, it := range sel.Items {
		cols := columnsOf([]minidb.Expr{it.Expr})
		hit := false
		categorized := false
		for _, c := range cols {
			if cat, ok := m.Categories[c]; ok {
				categorized = true
				if denied[cat] {
					hit = true
				}
			}
		}
		if hit {
			name := it.Alias
			if name == "" {
				name = it.Expr.String()
			}
			sel.Items[i] = minidb.SelectItem{
				Expr:  &minidb.Literal{Val: minidb.Null()},
				Alias: name,
			}
			masked = append(masked, name)
		} else if categorized {
			kept++
		}
	}
	sort.Strings(masked)
	return masked, kept
}

// addConsentPredicate rewrites WHERE with
// "AND patientCol NOT IN ('p1', ...)".
func addConsentPredicate(sel *minidb.SelectStmt, patientCol string, patients []string) {
	list := make([]minidb.Expr, len(patients))
	for i, p := range patients {
		list[i] = &minidb.Literal{Val: minidb.Text(p)}
	}
	pred := &minidb.InList{X: &minidb.ColRef{Name: patientCol}, Not: true, List: list}
	if sel.Where == nil {
		sel.Where = pred
	} else {
		sel.Where = &minidb.Binary{Op: "AND", L: sel.Where, R: pred}
	}
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
