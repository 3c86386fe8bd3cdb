package hdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/vocab"
)

// This file implements the enforcement fast path: an RCU-published
// decision snapshot plus a compiled query-plan cache, so the per-query
// hot loop takes zero locks and performs no parsing, no string-key
// construction, and no consent-store scans. The reference interpreter
// it must agree with lives in test code (reference_test.go); the
// differential tests in fastpath_test.go assert byte-identical
// outcomes.

// planCacheMax bounds the compiled-plan cache. On overflow the whole
// cache is dropped (generation sweep), mirroring policy.SymCache: a
// workload that overflows it is already paying parse costs, and
// wholesale reset keeps the bound free of LRU bookkeeping on the hot
// path. 1024 plans: clinician traffic embeds the patient in the SQL
// (a ward of 3000 patients and 11 chart columns sends about 33k
// distinct strings), and a string comes back mostly for its immediate
// break-glass retry, so plans past the most recent few hundred never
// hit again. A larger bound buys no hits, only a bigger sawtooth of
// heap between flushes (0–3.3 MiB at 4096). Only SQL up to
// maxCachedSQLBytes is cached, so the cache holds at most 1 MiB of SQL
// text.
const planCacheMax = 1024

// maxSQLBytes bounds the SQL text Query and BreakGlass accept. The
// parser bounds nesting, but +, *, AND and OR chains parse in a loop
// into a left-deep tree that minidb's evaluator recurses over once per
// operator, so the text length is what bounds evaluation depth: a
// chain at the bound evaluates in about 8 MiB of stack.
const maxSQLBytes = 16 << 10

// maxCachedSQLBytes is the longest SQL whose plan is cached. A plan
// keeps its SQL as the cache key and its literals in the AST, so the
// count bound alone would let planCacheMax long queries pin tens of
// MiB; longer SQL is planned on every call instead. Clinician traffic
// sends far shorter statements (the longest any workload sends is 72
// bytes).
const maxCachedSQLBytes = 1 << 10

// snapshotBuilder owns the mutex serializing decision-snapshot
// rebuilds. It is a distinct type (not a second mutex on Enforcer) so
// the lockorder analyzer tracks it as its own class: the builder lock
// is held while the Enforcer mapping lock, the consent store, and the
// policy layer are consulted, and must therefore sit above them in the
// pinned order.
type snapshotBuilder struct {
	mu sync.Mutex
}

// decisionSnapshot is an immutable compilation of one
// (policy version, vocabulary generation, consent generation) state.
// It holds the policy store's symbolic range, so the allowed() check
// for a ground (category, purpose, role) triple is an allocation-free
// interval probe; composite values are decided by symbolic coverage,
// memoized per triple key. Snapshots are published through
// Enforcer.snap with RCU semantics: readers atomically load and never
// lock, writers build a fresh snapshot and swap the pointer.
//
// prima:arena — a snapshot is filled during build and frozen at
// publication; the only post-publication writes go through its
// sync.Map memo, never its fields.
type decisionSnapshot struct {
	pver uint64 // policy.Policy version compiled in
	vgen uint64 // vocab.Vocabulary generation compiled in
	cgen uint64 // consent.Store generation compiled in (0 when no store)
	// horizon bounds validity in time: the earliest consent-record
	// expiry at or after build time. Consent decisions cannot change
	// before a store mutation or the instant just after the horizon.
	horizon time.Time

	rg *policy.SymRange // the policy store's Range(P), symbolically

	// composite memoizes, by canonical triple key, the verdicts for
	// triples ContainsTriple rejects: composite values and denied
	// ground triples.
	composite sync.Map // string -> bool
}

// valid reports whether the snapshot still describes the live system
// at now, the query's instant on the enforcer's clock. All probes are
// lock-free atomic loads.
func (s *decisionSnapshot) valid(e *Enforcer, now time.Time) bool {
	if s.pver != e.ps.Version() || s.vgen != e.v.Generation() {
		return false
	}
	if e.consent != nil {
		if s.cgen != e.consent.Generation() {
			return false
		}
		if !s.horizon.IsZero() && now.After(s.horizon) {
			return false
		}
	}
	return true
}

// allowed decides one (category, purpose, role) triple: an interval
// probe for ground triples; a composite value is allowed when every
// ground rule it derives is in the range, decided symbolically and
// memoized.
func (s *decisionSnapshot) allowed(v *vocab.Vocabulary, category, purpose, role string) bool {
	if s.rg.ContainsTriple(v, category, purpose, role) {
		return true
	}
	key := policy.TripleKey(category, purpose, role)
	if hit, ok := s.composite.Load(key); ok {
		return hit.(bool)
	}
	res := s.rg.CoversTriple(v, category, purpose, role)
	s.composite.Store(key, res)
	return res
}

// snapshot returns a decision snapshot valid at now, rebuilding under
// the builder lock when any version counter has moved or now is past
// the consent expiry horizon. The fast case is one atomic load plus
// three atomic version compares.
func (e *Enforcer) snapshot(now time.Time) *decisionSnapshot {
	if s := e.snap.Load(); s != nil && s.valid(e, now) {
		return s
	}
	e.snapb.mu.Lock()
	defer e.snapb.mu.Unlock()
	if s := e.snap.Load(); s != nil && s.valid(e, now) {
		return s
	}
	s := e.buildSnapshot(now)
	e.snap.Store(s)
	return s
}

// buildSnapshot compiles the current policy/vocabulary/consent state.
// Version counters are read before the data they describe: a racing
// mutation mid-build leaves the snapshot stale-at-birth, which the
// next valid() probe detects — the snapshot can claim an older state
// than it holds, never a newer one.
func (e *Enforcer) buildSnapshot(now time.Time) *decisionSnapshot {
	s := &decisionSnapshot{
		pver: e.ps.Version(),
		vgen: e.v.Generation(),
	}
	if e.consent != nil {
		s.cgen = e.consent.Generation()
		s.horizon = e.consent.ExpiryHorizon(now)
	}
	s.rg = policy.SharedSym.Range(e.ps, e.v)
	return s
}

// planItem is the per-output-item analysis a specialization needs to
// mask without re-walking the AST.
type planItem struct {
	cats        []string // data categories the item references
	categorized bool     // references at least one mapped column
	name        string   // mask label: alias, or the expression text
}

// queryPlan caches Parse + expandStar + column/category extraction for
// one SQL string. Plans are immutable after construction except for
// the single-slot specialization cache, which is an atomic pointer.
//
// prima:arena — a plan is built privately and frozen at publication
// into the plan cache; post-publication state lives only behind the
// spec atomic pointer.
type queryPlan struct {
	stmt       *minidb.SelectStmt // parsed, star-expanded; never mutated
	m          *TableMapping
	patientCol string
	mapGen     uint64 // Enforcer mapping generation compiled in
	schemaGen  uint64 // minidb schema generation compiled in
	outCats    []string
	otherCats  []string
	allCats    []string
	items      []planItem

	spec atomic.Pointer[specialization]
}

// specialization is a query plan bound to one decision snapshot and
// one (purpose, role): the fully precomputed outcome of enforcement
// analysis. Replaying it is a pointer compare plus (on allow) one
// statement execution.
//
// prima:arena — built privately, frozen once stored in queryPlan.spec.
type specialization struct {
	snap    *decisionSnapshot
	purpose string // raw, as supplied (error text embeds the raw form)
	role    string

	denyErr   error              // non-nil: the access is rejected
	denyAudit []string           // categories audited on denial
	denied    []string           // Access.Denied (non-output denial only)
	masked    []string           // Access.Masked
	optedOut  int                // Access.OptedOut
	stmt      *minidb.SelectStmt // statement to execute (== plan.stmt when unrewritten)
}

// plan returns the compiled plan for sql, building and caching it on
// miss; SQL longer than maxCachedSQLBytes is built and not cached. A
// plan is stale when a table mapping was (re)registered or the
// database schema changed; staleness is two lock-free counter loads.
func (e *Enforcer) plan(sql string) (*queryPlan, error) {
	if len(sql) > maxCachedSQLBytes {
		return e.buildPlan(sql)
	}
	if v, ok := e.plans.Load(sql); ok {
		pl := v.(*queryPlan)
		if pl.mapGen == e.mapGen.Load() && pl.schemaGen == e.db.SchemaGeneration() {
			return pl, nil
		}
	}
	pl, err := e.buildPlan(sql)
	if err != nil {
		return nil, err
	}
	if _, existed := e.plans.Swap(sql, pl); !existed {
		if e.planN.Add(1) > planCacheMax {
			e.FlushPlans()
		}
	}
	return pl, nil
}

// buildPlan compiles sql. The validation order (parse, statement
// kind, joins, mapping, table) matches the reference interpreter
// exactly so error behaviour is identical.
func (e *Enforcer) buildPlan(sql string) (*queryPlan, error) {
	mapGen := e.mapGen.Load()
	schemaGen := e.db.SchemaGeneration()
	st, err := minidb.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*minidb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hdb: only SELECT statements pass through enforcement")
	}
	if len(sel.Joins) > 0 {
		return nil, fmt.Errorf("hdb: joins are not supported under enforcement; query one registered table at a time")
	}
	m, err := e.mapping(sel.Table)
	if err != nil {
		return nil, err
	}
	tbl, err := e.db.Table(sel.Table)
	if err != nil {
		return nil, err
	}
	expandStar(sel, tbl)

	outCols := columnsOf(selectExprs(sel))
	otherCols := columnsOf(nonOutputExprs(sel))
	pl := &queryPlan{
		stmt:       sel,
		m:          m,
		patientCol: m.PatientCol,
		mapGen:     mapGen,
		schemaGen:  schemaGen,
		outCats:    categoriesOf(outCols, m),
		otherCats:  categoriesOf(otherCols, m),
		items:      make([]planItem, len(sel.Items)),
	}
	pl.allCats = union(pl.outCats, pl.otherCats)
	for i, it := range sel.Items {
		pi := planItem{}
		for _, c := range columnsOf([]minidb.Expr{it.Expr}) {
			if cat, ok := m.Categories[c]; ok {
				pi.categorized = true
				pi.cats = append(pi.cats, cat)
			}
		}
		pi.name = it.Alias
		if pi.name == "" && it.Expr != nil {
			pi.name = it.Expr.String()
		}
		pl.items[i] = pi
	}
	return pl, nil
}

// specFor returns the cached specialization when it was built against
// the same snapshot, purpose, and role; nil otherwise.
func (pl *queryPlan) specFor(s *decisionSnapshot, purpose, role string) *specialization {
	sp := pl.spec.Load()
	if sp != nil && sp.snap == s && sp.purpose == purpose && sp.role == role {
		return sp
	}
	return nil
}

// specialize binds a plan to a snapshot and a (purpose, role),
// mirroring the reference interpreter step by step: non-output denial,
// output masking, then consent filtering on a cheap statement clone.
// The cached plan statement is never mutated.
func (e *Enforcer) specialize(pl *queryPlan, s *decisionSnapshot, purpose, role string, now time.Time) *specialization {
	sp := &specialization{snap: s, purpose: purpose, role: role, stmt: pl.stmt}

	// Non-output use of a denied category rejects the query.
	var denied []string
	for _, cat := range pl.otherCats {
		if !s.allowed(e.v, cat, purpose, role) {
			denied = append(denied, cat)
		}
	}
	if len(denied) > 0 {
		sp.denied = denied
		sp.denyAudit = denied
		sp.denyErr = fmt.Errorf("%w: %s not permitted for %s by %s",
			ErrDenied, strings.Join(denied, ", "), report.RedactValue(purpose), role)
		return sp
	}

	// Mask denied output columns on a cloned item slice.
	var deniedOut []string // sorted: outCats is sorted
	for _, cat := range pl.outCats {
		if !s.allowed(e.v, cat, purpose, role) {
			deniedOut = append(deniedOut, cat)
		}
	}
	if len(deniedOut) > 0 {
		items := make([]minidb.SelectItem, len(pl.stmt.Items))
		copy(items, pl.stmt.Items)
		kept := 0
		var masked []string
		for i, pi := range pl.items {
			hit := false
			for _, cat := range pi.cats {
				if containsSorted(deniedOut, cat) {
					hit = true
					break
				}
			}
			if hit {
				items[i] = minidb.SelectItem{
					Expr:  &minidb.Literal{Val: minidb.Null()},
					Alias: pi.name,
				}
				masked = append(masked, pi.name)
			} else if pi.categorized {
				kept++
			}
		}
		sort.Strings(masked)
		sp.masked = masked
		if kept == 0 {
			sp.denyAudit = deniedOut
			sp.denyErr = fmt.Errorf("%w: no permitted columns remain for %s by %s",
				ErrDenied, report.RedactValue(purpose), role)
			return sp
		}
		st := *pl.stmt
		st.Items = items
		sp.stmt = &st
	}

	// Consent filtering over the categories actually returned.
	if e.consent != nil && pl.patientCol != "" {
		var excluded []string
		for _, cat := range pl.allCats {
			if containsSorted(deniedOut, cat) {
				continue
			}
			for _, pat := range e.consent.OptedOutAt(cat, purpose, now) {
				excluded = insertSorted(excluded, pat)
			}
		}
		if len(excluded) > 0 {
			st := *sp.stmt
			list := make([]minidb.Expr, len(excluded))
			for i, p := range excluded {
				list[i] = &minidb.Literal{Val: minidb.Text(p)}
			}
			pred := &minidb.InList{X: &minidb.ColRef{Name: pl.patientCol}, Not: true, List: list}
			if st.Where == nil {
				st.Where = pred
			} else {
				st.Where = &minidb.Binary{Op: "AND", L: st.Where, R: pred}
			}
			sp.stmt = &st
			sp.optedOut = len(excluded)
		}
	}
	return sp
}

// checkSQLLength refuses SQL longer than maxSQLBytes before it is
// parsed; the refusal writes no audit entry.
func checkSQLLength(sql string) error {
	if len(sql) > maxSQLBytes {
		return fmt.Errorf("hdb: query is %d bytes, over the %d-byte limit", len(sql), maxSQLBytes)
	}
	return nil
}

// runFast is the compiled enforcement path. Per query it performs:
// principal, purpose and SQL length checks, one plan-cache probe, one snapshot load
// with three atomic version compares, one specialization pointer
// compare, statement execution, and the audit append. No locks are
// taken outside the audit sink.
func (e *Enforcer) runFast(p Principal, purpose, reason, sql string, breakGlass bool) (*minidb.Result, *Access, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if strings.TrimSpace(purpose) == "" {
		return nil, nil, fmt.Errorf("hdb: a purpose is required (HIPAA purpose specification)")
	}
	if err := checkSQLLength(sql); err != nil {
		return nil, nil, err
	}
	pl, err := e.plan(sql)
	if err != nil {
		return nil, nil, err
	}
	// One instant per query: consent expiry is decided and the audit
	// entries are stamped on the same reading of the enforcer's clock.
	now := (*e.clock.Load())()

	// Break-glass bypasses the decision layer entirely — policy and
	// consent are not consulted — but still benefits from the compiled
	// plan (no reparse, no re-expansion).
	if breakGlass {
		acc := &Access{Categories: pl.allCats, Exception: true}
		res, err := e.db.ExecStmt(pl.stmt)
		if err != nil {
			return nil, nil, err
		}
		e.audit(p, purpose, reason, acc, audit.Allow, pl.allCats, now)
		return res, acc, nil
	}

	s := e.snapshot(now)
	sp := pl.specFor(s, purpose, p.Role)
	if sp == nil {
		sp = e.specialize(pl, s, purpose, p.Role, now)
		pl.spec.Store(sp)
	}
	acc := &Access{
		Categories: pl.allCats,
		Masked:     sp.masked,
		Denied:     sp.denied,
		OptedOut:   sp.optedOut,
	}
	if sp.denyErr != nil {
		e.audit(p, purpose, reason, acc, audit.Deny, sp.denyAudit, now)
		return nil, acc, sp.denyErr
	}
	res, err := e.db.ExecStmt(sp.stmt)
	if err != nil {
		return nil, nil, err
	}
	e.audit(p, purpose, reason, acc, audit.Allow, pl.allCats, now)
	return res, acc, nil
}

// FlushPlans drops every compiled query plan and the current decision
// snapshot; they rebuild on demand. Useful for cold-path measurement
// and after bulk administrative changes.
func (e *Enforcer) FlushPlans() {
	e.plans.Range(func(k, _ any) bool {
		e.plans.Delete(k)
		return true
	})
	e.planN.Store(0)
	e.snap.Store(nil)
}

// containsSorted reports membership in a small sorted slice.
func containsSorted(sorted []string, s string) bool {
	i := sort.SearchStrings(sorted, s)
	return i < len(sorted) && sorted[i] == s
}

// insertSorted inserts s into a small sorted slice, keeping it sorted
// and deduplicated.
func insertSorted(sorted []string, s string) []string {
	i := sort.SearchStrings(sorted, s)
	if i < len(sorted) && sorted[i] == s {
		return sorted
	}
	sorted = append(sorted, "")
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = s
	return sorted
}
