// Package workflow simulates a hospital's clinical workflow to stand
// in for the real audit trails PRIMA analyses (the paper grounds its
// motivation in the Norwegian access-log study [2]; no such PHI-laden
// logs can ship with a reproduction). The simulator generates
// timestamped access events from three behaviour classes:
//
//   - documented practice: accesses drawn from the policy store's
//     range, recorded as regular accesses (status 1);
//   - informal practice: recurring, multi-user habits that the policy
//     does not cover — the clinical reality refinement should learn —
//     recorded as exception-based accesses (status 0);
//   - violations: low-rate, typically single-user snooping that must
//     NOT be adopted into policy.
//
// Events carry ground-truth labels so extraction quality (precision /
// recall) is measurable, which the paper could not do.
package workflow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// Staff is one member of the hospital roster.
type Staff struct {
	Name string
	Role string
}

// Behavior is one recurring access habit: a ground rule over
// (data, purpose, authorized) plus its intensity and the users
// exhibiting it.
type Behavior struct {
	Data    string
	Purpose string
	Role    string
	// PerDay is the expected number of events per simulated day
	// (Poisson).
	PerDay float64
	// Users is the pool exhibiting the behaviour; empty means every
	// staff member with the matching role.
	Users []string
	// FromDay and UntilDay bound the behaviour's activity window in
	// simulation days; a zero UntilDay means "forever". Emerging
	// informal practices (a new department workflow, a seasonal
	// surge) are modelled by setting FromDay > 0.
	FromDay  int
	UntilDay int
	// OffHours places the behaviour's events between 18:00 and 06:00
	// instead of the working day — the snooping time profile that
	// core.GatherEvidence's off-hours feature detects.
	OffHours bool
}

// activeOn reports whether the behaviour generates events on the
// given simulation day.
func (b Behavior) activeOn(day int) bool {
	if day < b.FromDay {
		return false
	}
	return b.UntilDay == 0 || day < b.UntilDay
}

// Rule returns the behaviour's ground rule.
func (b Behavior) Rule() policy.Rule {
	return policy.MustRule(
		policy.T("data", b.Data),
		policy.T("purpose", b.Purpose),
		policy.T("authorized", b.Role),
	)
}

// Config parameterizes a simulation.
type Config struct {
	Vocab *vocab.Vocabulary
	// Policy is the documented practice; regular accesses are drawn
	// from its range and events are labelled exception-based exactly
	// when their rule falls outside it at generation time.
	Policy *policy.Policy
	Staff  []Staff
	// DocumentedPerDay is the expected number of regular, documented
	// accesses per day.
	DocumentedPerDay float64
	Informal         []Behavior
	Violations       []Behavior
	Seed             int64
	// Start is the timestamp of day 0 (defaults to 2007-03-01 UTC).
	Start time.Time
}

// Simulator generates audit entries from a Config.
type Simulator struct {
	cfg    Config
	rng    *rand.Rand
	byRole map[string][]string // role -> user names
	// behaviors is informal followed by violations with their ground
	// rules and staff pools resolved once, so the per-event path does
	// no rule construction or roster lookups.
	behaviors []behaviorState
	// sortKeys and sortScratch are the per-day sort buffers, kept on
	// the simulator so successive runs reuse them.
	sortKeys    []uint64
	sortScratch []audit.Entry
}

// behaviorState is a Behavior plus its run-invariant derivations.
type behaviorState struct {
	Behavior
	rule policy.Rule
	pool []string
}

// New validates the configuration and builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.Vocab == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("workflow: vocabulary and policy are required")
	}
	if len(cfg.Staff) == 0 {
		return nil, fmt.Errorf("workflow: an empty roster cannot deliver care")
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	s := &Simulator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		byRole: make(map[string][]string),
	}
	for _, st := range cfg.Staff {
		if st.Name == "" || st.Role == "" {
			return nil, fmt.Errorf("workflow: staff entries need name and role")
		}
		s.byRole[vocab.Norm(st.Role)] = append(s.byRole[vocab.Norm(st.Role)], st.Name)
	}
	for _, b := range append(append([]Behavior{}, cfg.Informal...), cfg.Violations...) {
		if b.PerDay <= 0 {
			return nil, fmt.Errorf("workflow: behaviour %s has non-positive rate", b.Rule())
		}
		pool := b.Users
		if len(pool) == 0 {
			pool = s.byRole[vocab.Norm(b.Role)]
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("workflow: behaviour %s has no eligible staff", b.Rule())
		}
		s.behaviors = append(s.behaviors, behaviorState{Behavior: b, rule: b.Rule(), pool: pool})
	}
	return s, nil
}

// GroundTruth returns the informal-practice rules (the positives an
// extractor should find) and the violation rules (negatives it must
// not adopt).
func (s *Simulator) GroundTruth() (informal, violations []policy.Rule) {
	for _, b := range s.cfg.Informal {
		informal = append(informal, b.Rule())
	}
	for _, b := range s.cfg.Violations {
		violations = append(violations, b.Rule())
	}
	return informal, violations
}

// Run simulates the given number of days starting at day offset
// startDay and returns the chronologically sorted audit entries.
// Entries are labelled against the *current* contents of cfg.Policy,
// so re-running after refinement adoption converts informal habits
// into regular accesses — exactly the paper's "gradually and
// seamlessly embed privacy controls".
func (s *Simulator) Run(startDay, days int) ([]audit.Entry, error) {
	return s.RunInto(nil, startDay, days)
}

// RunInto is Run in the append style: generated entries are appended
// to dst (which may be nil) and the extended slice is returned, so a
// caller draining epochs into a log can recycle one buffer instead of
// allocating a fresh slice per run.
func (s *Simulator) RunInto(dst []audit.Entry, startDay, days int) ([]audit.Entry, error) {
	// The documented traffic draws from the listed ground rules of the
	// current store, so adopting refined rules between runs relabels
	// subsequent traffic.
	rg, err := policy.NewRange(s.cfg.Policy, s.cfg.Vocab, 0)
	if err != nil {
		return nil, fmt.Errorf("workflow: policy range: %w", err)
	}
	docRules := rg.Rules()
	// Resolve the per-rule event shape (triple values, staff pool,
	// range membership) once per run: all of it is invariant while the
	// policy version is fixed, so the per-event path reduces to RNG
	// draws and an append.
	docs := make([]emitter, len(docRules))
	for i, r := range docRules {
		docs[i] = s.emitterFor(r, nil, rg)
	}
	acts := make([]emitter, len(s.behaviors))
	perDay := s.cfg.DocumentedPerDay
	for i := range s.behaviors {
		acts[i] = s.emitterFor(s.behaviors[i].rule, s.behaviors[i].pool, rg)
		perDay += s.behaviors[i].PerDay
	}
	entries := slices.Grow(dst, int(perDay*float64(days)*5/4)+16)

	for day := startDay; day < startDay+days; day++ {
		dayStart := s.cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		mark := len(entries)

		// Documented, policy-covered accesses.
		if s.cfg.DocumentedPerDay > 0 && len(docRules) > 0 {
			n := s.poisson(s.cfg.DocumentedPerDay)
			for i := 0; i < n; i++ {
				em := &docs[s.rng.Intn(len(docs))]
				if len(em.pool) == 0 {
					continue // no staff for that role: skip the draw
				}
				entries = append(entries, s.emit(em, dayStart, false))
			}
		}
		// Informal practices and violations use the same generator;
		// their differing shapes (rates, user pools) are the signal.
		for bi := range s.behaviors {
			b := &s.behaviors[bi]
			if !b.activeOn(day) {
				continue
			}
			n := s.poisson(b.PerDay)
			for i := 0; i < n; i++ {
				entries = append(entries, s.emit(&acts[bi], dayStart, b.OffHours))
			}
		}
		// Every event lands inside its own day (off-hours draws wrap
		// 24:00–06:00 back onto the same date), so sorting each day's
		// suffix in place is the global chronological stable sort.
		s.sortKeys, s.sortScratch = sortDay(entries[mark:], dayStart, s.sortKeys, s.sortScratch)
	}
	return entries, nil
}

// sortDay chronologically orders one day's entries, stable in the
// emission order. Each key packs (second-of-day, emission index) into
// one integer, so a plain integer sort replaces a stable sort that
// would shuffle the wide Entry structs O(n log n) times. The buffers
// are returned for reuse across days.
func sortDay(entries []audit.Entry, dayStart time.Time, keys []uint64, scratch []audit.Entry) ([]uint64, []audit.Entry) {
	if len(entries) < 2 {
		return keys, scratch
	}
	keys = keys[:0]
	for i, e := range entries {
		keys = append(keys, uint64(e.Time.Sub(dayStart)/time.Second)<<32|uint64(i))
	}
	slices.Sort(keys)
	scratch = append(scratch[:0], entries...)
	for i, k := range keys {
		entries[i] = scratch[k&0xffffffff]
	}
	return keys, scratch
}

// emitter is the run-invariant shape of one event source: the
// normalized triple, the eligible staff pool and the status label the
// current policy range assigns it.
type emitter struct {
	data, purpose, role string
	pool                []string
	status              audit.Status
}

// emitterFor labels the rule against the policy range and resolves
// its staff pool (an explicit user list, or the roster slice for the
// rule's role).
func (s *Simulator) emitterFor(r policy.Rule, pool []string, rg *policy.Range) emitter {
	role, _ := r.Value("authorized")
	data, _ := r.Value("data")
	purpose, _ := r.Value("purpose")
	if len(pool) == 0 {
		pool = s.byRole[vocab.Norm(role)]
	}
	status := audit.Exception
	if rg.Contains(r) {
		status = audit.Regular
	}
	return emitter{data: data, purpose: purpose, role: role, pool: pool, status: status}
}

// emit materializes one access for the emitter at a random moment of
// the day (or night, for off-hours behaviours). The pool must be
// non-empty; the two RNG draws (user, then second-of-day) match the
// original per-event generator so seeded traces are unchanged.
func (s *Simulator) emit(em *emitter, dayStart time.Time, offHours bool) audit.Entry {
	user := em.pool[s.rng.Intn(len(em.pool))]
	secOfDay := 6*3600 + s.rng.Intn(12*3600) // 06:00–18:00
	if offHours {
		secOfDay = (18*3600 + s.rng.Intn(12*3600)) % (24 * 3600) // 18:00–06:00
	}
	return audit.Entry{
		Time:       dayStart.Add(time.Duration(secOfDay) * time.Second),
		Op:         audit.Allow,
		User:       user,
		Data:       em.data,
		Purpose:    em.purpose,
		Authorized: em.role,
		Status:     em.status,
	}
}

// poisson draws from Poisson(lambda) by Knuth's method; adequate for
// the small per-day rates used here.
func (s *Simulator) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // guard against pathological lambda
		}
	}
}

// Score evaluates extracted pattern rules against ground truth.
type Score struct {
	TruePositives  int // informal practices found
	FalsePositives int // violations (or noise) surfaced
	FalseNegatives int // informal practices missed
	Precision      float64
	Recall         float64
}

// Evaluate computes precision and recall of found rules against the
// ground truth sets.
func Evaluate(found []policy.Rule, informal, violations []policy.Rule) Score {
	truth := make(map[string]bool, len(informal))
	for _, r := range informal {
		truth[r.Key()] = true
	}
	foundSet := make(map[string]bool, len(found))
	var sc Score
	for _, r := range found {
		foundSet[r.Key()] = true
		if truth[r.Key()] {
			sc.TruePositives++
		} else {
			sc.FalsePositives++
		}
	}
	for _, r := range informal {
		if !foundSet[r.Key()] {
			sc.FalseNegatives++
		}
	}
	if sc.TruePositives+sc.FalsePositives > 0 {
		sc.Precision = float64(sc.TruePositives) / float64(sc.TruePositives+sc.FalsePositives)
	}
	if sc.TruePositives+sc.FalseNegatives > 0 {
		sc.Recall = float64(sc.TruePositives) / float64(sc.TruePositives+sc.FalseNegatives)
	}
	return sc
}

// Roles returns the roster's distinct roles, sorted.
func (s *Simulator) Roles() []string {
	out := make([]string, 0, len(s.byRole))
	for r := range s.byRole {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
