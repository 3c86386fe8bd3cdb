// Package hdb implements the Hippocratic Database components PRIMA
// builds on (paper §4.1, Figures 4–5): Active Enforcement — a
// middleware layer that rewrites user queries so that "only data
// consistent with policy and patient preferences is returned" — and
// Compliance Auditing — the automatic generation of an audit entry,
// in the paper's schema, for every request, including the
// break-the-glass path that records exception-based access.
//
// The IBM HDB products are closed; this package reproduces their
// contract over the minidb engine (see DESIGN.md, substitution
// table).
package hdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// Principal identifies the requesting user and their authorization
// category (role).
type Principal struct {
	User string // prima:phi — requesting user identity
	Role string
}

// Validate reports missing identity fields.
func (p Principal) Validate() error {
	if strings.TrimSpace(p.User) == "" || strings.TrimSpace(p.Role) == "" {
		return fmt.Errorf("hdb: principal needs both user and role")
	}
	return nil
}

// TableMapping declares how a clinical table maps onto the privacy
// vocabulary: which column identifies the patient and which data
// category each column carries. Columns without a category (ids,
// timestamps) are exempt from policy checks.
type TableMapping struct {
	Table      string
	PatientCol string            // empty when the table holds no patient data
	Categories map[string]string // column name -> data category
}

// ErrDenied is returned when policy forbids the access; the caller
// may retry through BreakGlass, which is exactly the workflow the
// paper's exception-based access describes.
var ErrDenied = errors.New("hdb: access denied by policy")

// Enforcer is the Active Enforcement + Compliance Auditing middleware
// in front of a minidb database.
type Enforcer struct {
	db      *minidb.Database
	ps      *policy.Policy
	v       *vocab.Vocabulary
	consent *consent.Store
	log     *audit.Log

	mu       sync.RWMutex
	mappings map[string]*TableMapping // lower(table) -> mapping

	// Lock-free per-query state: the fast path reads all of it with
	// atomic loads only (see fastpath.go).
	clock  atomic.Pointer[func() time.Time]
	mapGen atomic.Uint64 // bumped by RegisterTable; keys plan validity
	snap   atomic.Pointer[decisionSnapshot]
	plans  sync.Map // sql -> *queryPlan
	planN  atomic.Int64
	snapb  snapshotBuilder
}

// New builds an enforcer. The policy store is held by reference:
// rules adopted by refinement become effective on the next query.
// consent may be nil (no consent filtering); log may be nil (no
// auditing) although a PRIMA deployment always audits.
func New(db *minidb.Database, ps *policy.Policy, v *vocab.Vocabulary, cs *consent.Store, log *audit.Log) *Enforcer {
	e := &Enforcer{
		db: db, ps: ps, v: v, consent: cs, log: log,
		mappings: make(map[string]*TableMapping),
	}
	now := time.Now
	e.clock.Store(&now)
	return e
}

// SetClock overrides the audit timestamp source; tests and the
// workflow simulator use it for deterministic logs.
func (e *Enforcer) SetClock(clock func() time.Time) {
	e.clock.Store(&clock)
}

// RegisterTable validates and installs a table mapping.
func (e *Enforcer) RegisterTable(m TableMapping) error {
	tbl, err := e.db.Table(m.Table)
	if err != nil {
		return err
	}
	cols := make(map[string]bool)
	for _, c := range tbl.Columns() {
		cols[strings.ToLower(c.Name)] = true
	}
	if m.PatientCol != "" && !cols[strings.ToLower(m.PatientCol)] {
		return fmt.Errorf("hdb: table %q has no patient column %q", m.Table, m.PatientCol)
	}
	norm := &TableMapping{
		Table:      m.Table,
		PatientCol: strings.ToLower(m.PatientCol),
		Categories: make(map[string]string, len(m.Categories)),
	}
	for col, cat := range m.Categories {
		lc := strings.ToLower(col)
		if !cols[lc] {
			return fmt.Errorf("hdb: table %q has no column %q", m.Table, col)
		}
		if h := e.v.Hierarchy("data"); h != nil && !h.Contains(cat) {
			return fmt.Errorf("hdb: data category %q is not in the vocabulary", cat)
		}
		norm.Categories[lc] = cat
	}
	// The patient column keys chart reads (`WHERE patient = '…'`) and
	// the consent filter (`patient NOT IN (…)`), so it gets an equality
	// index: a chart read is an index probe, as over DB2, not a scan.
	if pc := norm.PatientCol; pc != "" && !slices.Contains(tbl.Indexes(), pc) {
		// A concurrent registration may have created it meanwhile.
		if err := e.db.CreateIndex(m.Table, pc); err != nil && !slices.Contains(tbl.Indexes(), pc) {
			return err
		}
	}
	e.mu.Lock()
	e.mappings[strings.ToLower(m.Table)] = norm
	e.mu.Unlock()
	// Invalidate compiled plans that captured the previous mapping.
	e.mapGen.Add(1)
	return nil
}

// Mappings returns the registered table mappings, sorted by table
// name; used for system snapshots.
func (e *Enforcer) Mappings() []TableMapping {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]TableMapping, 0, len(e.mappings))
	for _, m := range e.mappings {
		cp := TableMapping{Table: m.Table, PatientCol: m.PatientCol, Categories: make(map[string]string, len(m.Categories))}
		for k, v := range m.Categories {
			cp.Categories[k] = v
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return strings.ToLower(out[i].Table) < strings.ToLower(out[j].Table) })
	return out
}

func (e *Enforcer) mapping(table string) (*TableMapping, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if m, ok := e.mappings[strings.ToLower(table)]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("hdb: table %q is not registered for enforcement", table)
}

// Access describes the outcome of one enforced query.
type Access struct {
	Categories []string // data categories the query touched
	Masked     []string // output columns nulled by policy
	Denied     []string // categories that caused denial (non-output use)
	OptedOut   int      // patients excluded by consent
	Exception  bool     // break-the-glass path
	Entries    []audit.Entry
}

// Query enforces policy and consent on a SELECT statement, executes
// the rewritten query, and audits the access (status 1, regular).
//
// Enforcement semantics:
//   - output columns whose category the policy denies for
//     (purpose, role) are masked to NULL;
//   - denied categories used outside the output (WHERE, GROUP BY,
//     HAVING, ORDER BY) reject the whole query with ErrDenied, since
//     filtering on a forbidden category would leak it;
//   - if every categorized output column is denied the query is
//     rejected with ErrDenied;
//   - rows of patients whose consent excludes any accessed category
//     for this purpose are filtered out by rewriting WHERE.
func (e *Enforcer) Query(p Principal, purpose, sql string) (*minidb.Result, *Access, error) {
	return e.runFast(p, purpose, "", sql, false)
}

// BreakGlass executes the query bypassing policy and consent — the
// exception-based access path — and audits it with status 0 and the
// mandatory reason.
func (e *Enforcer) BreakGlass(p Principal, purpose, reason, sql string) (*minidb.Result, *Access, error) {
	if strings.TrimSpace(reason) == "" {
		return nil, nil, fmt.Errorf("hdb: break-glass access requires a reason")
	}
	return e.runFast(p, purpose, reason, sql, true)
}

// audit writes one compliance entry per touched data category, as the
// paper's single-valued (data, d) schema requires.
func (e *Enforcer) audit(p Principal, purpose, reason string, acc *Access, op audit.Op, cats []string) {
	if e.log == nil {
		return
	}
	status := audit.Regular
	if acc.Exception {
		status = audit.Exception
	}
	now := (*e.clock.Load())()
	batch := make([]audit.Entry, 0, len(cats))
	for _, cat := range cats {
		batch = append(batch, audit.Entry{
			Time:       now,
			Op:         op,
			User:       p.User,
			Data:       cat,
			Purpose:    purpose,
			Authorized: p.Role,
			Status:     status,
			Reason:     reason,
		})
	}
	// One batched append: a single validation pass and one sink
	// enqueue run per query instead of per touched category.
	if err := e.log.Append(batch...); err == nil {
		acc.Entries = append(acc.Entries, batch...)
	}
}

// ---- AST analysis and rewriting ----

// expandStar replaces bare * items with one item per table column.
func expandStar(sel *minidb.SelectStmt, tbl *minidb.Table) {
	var items []minidb.SelectItem
	for _, it := range sel.Items {
		if !it.Star {
			items = append(items, it)
			continue
		}
		for _, c := range tbl.Columns() {
			items = append(items, minidb.SelectItem{
				Expr:  &minidb.ColRef{Name: c.Name},
				Alias: c.Name,
			})
		}
	}
	sel.Items = items
}

func selectExprs(sel *minidb.SelectStmt) []minidb.Expr {
	var out []minidb.Expr
	for _, it := range sel.Items {
		if it.Expr != nil {
			out = append(out, it.Expr)
		}
	}
	return out
}

func nonOutputExprs(sel *minidb.SelectStmt) []minidb.Expr {
	var out []minidb.Expr
	if sel.Where != nil {
		out = append(out, sel.Where)
	}
	out = append(out, sel.GroupBy...)
	if sel.Having != nil {
		out = append(out, sel.Having)
	}
	for _, ob := range sel.OrderBy {
		out = append(out, ob.Expr)
	}
	return out
}

// columnsOf collects every column name referenced by the expressions,
// sorted and deduplicated. Queries reference a handful of columns, so
// the set is kept as a small sorted slice (binary-search insert)
// rather than a map — no map allocation on the per-query path.
func columnsOf(exprs []minidb.Expr) []string {
	var out []string
	for _, e := range exprs {
		out = collectColumns(out, e)
	}
	return out
}

func collectColumns(out []string, e minidb.Expr) []string {
	switch x := e.(type) {
	case nil:
		return out
	case *minidb.ColRef:
		name := x.Name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		return insertSorted(out, strings.ToLower(name))
	case *minidb.Unary:
		return collectColumns(out, x.X)
	case *minidb.Binary:
		return collectColumns(collectColumns(out, x.L), x.R)
	case *minidb.Call:
		for _, a := range x.Args {
			out = collectColumns(out, a)
		}
		return out
	case *minidb.InList:
		out = collectColumns(out, x.X)
		for _, a := range x.List {
			out = collectColumns(out, a)
		}
		return out
	case *minidb.Like:
		return collectColumns(collectColumns(out, x.X), x.Pattern)
	case *minidb.IsNull:
		return collectColumns(out, x.X)
	}
	return out
}

// categoriesOf maps column names to their data categories (sorted,
// deduplicated); unmapped columns carry no category. The dominant
// one-or-two-category case stays on a small sorted slice.
func categoriesOf(cols []string, m *TableMapping) []string {
	var out []string
	for _, c := range cols {
		if cat, ok := m.Categories[c]; ok {
			out = insertSorted(out, cat)
		}
	}
	return out
}

// union merges two sorted, deduplicated slices. The result is always
// non-nil (callers serialize it) and may alias an input when the other
// is empty; neither input is mutated afterwards.
func union(a, b []string) []string {
	if len(b) == 0 {
		if a == nil {
			return []string{}
		}
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
