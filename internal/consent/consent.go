// Package consent implements the patient-consent store the HDB
// Control Center feeds (paper §4.1: the enforcement middleware
// returns "only data consistent with policy and patient preferences").
// The model follows the HIPAA practice PRIMA targets: uses and
// disclosures are permitted by default for healthcare operations, and
// each patient may record opt-outs (or explicit opt-ins) per
// (data category, purpose) pair, at any granularity the privacy
// vocabulary supports — a choice recorded for a composite category
// applies to everything beneath it.
package consent

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vocab"
)

// Choice is a recorded consent decision.
type Choice int

// Choice values. Unset means "no recorded choice": the store default
// applies.
const (
	Unset Choice = iota
	OptIn
	OptOut
)

// String names the choice.
func (c Choice) String() string {
	switch c {
	case OptIn:
		return "opt-in"
	case OptOut:
		return "opt-out"
	default:
		return "unset"
	}
}

// record is one stored consent decision.
type record struct {
	data    string // vocabulary data category (possibly composite); "" = all data
	purpose string // vocabulary purpose (possibly composite); "" = all purposes
	choice  Choice
	at      time.Time
	expires time.Time // zero = never (HIPAA authorizations often carry an expiry)
}

// Store is a thread-safe consent registry.
type Store struct {
	mu sync.RWMutex
	v  *vocab.Vocabulary
	// DefaultAllow is the store-wide default when no patient choice
	// applies. HIPAA treatment/payment/operations default to allowed.
	defaultAllow bool
	byPatient    map[string][]record
	// optOuts counts the OptOut records ever stored per patient (not
	// expiry-adjusted — a superset is enough). Under defaultAllow only
	// these patients can be denied, so OptedOut scans this candidate
	// set instead of every recorded choice in the store.
	optOuts map[string]int
	// inv memoizes OptedOut results per normalized (data, purpose),
	// valid while gen is unchanged and no candidate record expires.
	// Bounded by invCacheMax with wholesale drop, like
	// policy.SymCache.
	inv map[invKey]invEntry
	// gen counts mutations (Set/SetWithExpiry/Revoke). Read lock-free
	// by the enforcement decision snapshot and the inv cache.
	gen atomic.Uint64
}

// invKey identifies one inverted-index entry.
type invKey struct{ data, purpose string }

// invEntry is a memoized OptedOut result.
type invEntry struct {
	gen      uint64    // store generation the entry was computed at
	at       time.Time // instant the entry was computed for
	horizon  time.Time // earliest candidate expiry after at; zero = none
	patients []string  // sorted; never mutated after install
}

// invCacheMax bounds the inverted index; on overflow the whole map is
// dropped and rebuilt on demand.
const invCacheMax = 1024

// NewStore builds a consent store over the given vocabulary.
// defaultAllow selects the behaviour when a patient has recorded no
// applicable choice.
func NewStore(v *vocab.Vocabulary, defaultAllow bool) *Store {
	return &Store{
		v:            v,
		defaultAllow: defaultAllow,
		byPatient:    make(map[string][]record),
		optOuts:      make(map[string]int),
		inv:          make(map[invKey]invEntry),
	}
}

// Set records a choice for patient over (data, purpose). Empty data
// or purpose mean "any". The most recent, most specific choice wins
// at decision time.
func (s *Store) Set(patient, data, purpose string, choice Choice, at time.Time) error {
	return s.SetWithExpiry(patient, data, purpose, choice, at, time.Time{})
}

// SetWithExpiry is Set with an expiration instant, after which the
// record no longer applies (HIPAA authorizations typically expire).
// A zero expiry never lapses.
func (s *Store) SetWithExpiry(patient, data, purpose string, choice Choice, at, expires time.Time) error {
	if vocab.Norm(patient) == "" {
		return fmt.Errorf("consent: empty patient id")
	}
	if choice != OptIn && choice != OptOut {
		return fmt.Errorf("consent: choice must be opt-in or opt-out")
	}
	if !expires.IsZero() && !expires.After(at) {
		return fmt.Errorf("consent: expiry %v is not after the record time %v", expires, at)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := vocab.Norm(patient)
	s.byPatient[key] = append(s.byPatient[key], record{
		data:    vocab.Norm(data),
		purpose: vocab.Norm(purpose),
		choice:  choice,
		at:      at,
		expires: expires,
	})
	if choice == OptOut {
		s.optOuts[key]++
	}
	s.gen.Add(1)
	return nil
}

// Revoke removes every recorded choice of the patient, returning the
// number of records dropped.
func (s *Store) Revoke(patient string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := vocab.Norm(patient)
	n := len(s.byPatient[key])
	if n == 0 {
		return 0
	}
	delete(s.byPatient, key)
	delete(s.optOuts, key)
	s.gen.Add(1)
	return n
}

// Generation returns the store mutation counter: it increases on every
// Set/SetWithExpiry/Revoke, so derived artifacts (the inverted index,
// the enforcement decision snapshot) validate with one lock-free load.
func (s *Store) Generation() uint64 {
	return s.gen.Load()
}

// Decision explains a consent check.
type Decision struct {
	Allowed bool
	// Matched reports whether a recorded choice applied (false: the
	// store default decided).
	Matched bool
	Choice  Choice
}

// decideLocked decides whether the patient's data in the given
// category may be used for the given purpose at instant now.
// Specificity: a record matches when its data term subsumes the
// requested category and its purpose term subsumes the requested
// purpose (empty terms subsume everything) and it has not expired.
// Among matches, deeper (more specific) records win; ties break to the
// most recent record. Callers hold s.mu (read or write).
func (s *Store) decideLocked(recs []record, data, purpose string, now time.Time) Decision {
	best := -1
	bestSpec := -1
	for i, r := range recs {
		if !r.expires.IsZero() && now.After(r.expires) {
			continue
		}
		if !s.subsumes("data", r.data, data) || !s.subsumes("purpose", r.purpose, purpose) {
			continue
		}
		spec := s.specificity("data", r.data) + s.specificity("purpose", r.purpose)
		if spec > bestSpec || (spec == bestSpec && best >= 0 && !recs[i].at.Before(recs[best].at)) {
			best = i
			bestSpec = spec
		}
	}
	if best < 0 {
		return Decision{Allowed: s.defaultAllow, Matched: false, Choice: Unset}
	}
	r := recs[best]
	return Decision{Allowed: r.choice == OptIn, Matched: true, Choice: r.choice}
}

// subsumes treats an empty recorded term as "any".
func (s *Store) subsumes(attr, recorded, requested string) bool {
	if recorded == "" {
		return true
	}
	return s.v.Subsumes(attr, recorded, requested)
}

// specificity scores a recorded term: empty = 0, otherwise its depth
// in the hierarchy (unknown values count as depth 1).
func (s *Store) specificity(attr, value string) int {
	if value == "" {
		return 0
	}
	h := s.v.Hierarchy(attr)
	if h == nil {
		return 1
	}
	if d := h.Depth(value); d > 0 {
		return d
	}
	return 1
}

// OptedOutAt is OptedOut at instant now. Results are served from an
// incrementally invalidated inverted index: an entry computed at
// generation g for instant t stays valid until the store mutates or a
// candidate record expires, so the common case is a map probe plus a
// copy of the cached (sorted) patient list rather than a rescan of
// every recorded choice.
func (s *Store) OptedOutAt(data, purpose string, now time.Time) []string {
	key := invKey{data: vocab.Norm(data), purpose: vocab.Norm(purpose)}

	s.mu.RLock()
	e, ok := s.inv[key]
	if ok && s.invValidLocked(e, now) {
		out := append([]string(nil), e.patients...)
		s.mu.RUnlock()
		return out
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	// Another goroutine may have filled the entry while the lock was
	// dropped.
	if e, ok := s.inv[key]; ok && s.invValidLocked(e, now) {
		return append([]string(nil), e.patients...)
	}
	e = s.rebuildInvLocked(key, now)
	if len(s.inv) >= invCacheMax {
		s.inv = make(map[invKey]invEntry)
	}
	s.inv[key] = e
	return append([]string(nil), e.patients...)
}

// invValidLocked reports whether entry e still answers for instant
// now: the store is unmutated, now has not moved before the entry's
// computation instant, and no candidate record has expired since.
func (s *Store) invValidLocked(e invEntry, now time.Time) bool {
	if e.gen != s.gen.Load() || now.Before(e.at) {
		return false
	}
	// A record is still active at its exact expiry instant
	// (decideLocked expires with now.After), so the entry answers up
	// to and including the horizon.
	return e.horizon.IsZero() || !now.After(e.horizon)
}

// rebuildInvLocked recomputes one inverted-index entry. Only candidate
// patients are scanned: under defaultAllow a patient without any
// OptOut record can never be denied; under defaultDeny every recorded
// patient is a candidate (patients with no records at all are not
// enumerable and are excluded by the OptedOut contract).
func (s *Store) rebuildInvLocked(key invKey, now time.Time) invEntry {
	e := invEntry{gen: s.gen.Load(), at: now}
	scan := func(patient string, recs []record) {
		for _, r := range recs {
			// expires == now still decides "active", so it bounds the
			// entry (the decision flips just after that instant).
			if !r.expires.IsZero() && !r.expires.Before(now) &&
				(e.horizon.IsZero() || r.expires.Before(e.horizon)) {
				e.horizon = r.expires
			}
		}
		if !s.decideLocked(recs, key.data, key.purpose, now).Allowed {
			e.patients = append(e.patients, patient)
		}
	}
	if s.defaultAllow {
		for patient := range s.optOuts {
			scan(patient, s.byPatient[patient])
		}
	} else {
		for patient, recs := range s.byPatient {
			scan(patient, recs)
		}
	}
	sort.Strings(e.patients)
	return e
}

// ExpiryHorizon returns the earliest record expiry at or after now
// across every stored choice, or the zero time when no such expiry
// exists. The enforcement decision snapshot uses it to bound its own
// validity: up to and including the horizon, no consent decision can
// change without a store mutation (records are active at their exact
// expiry instant and lapse just after it).
func (s *Store) ExpiryHorizon(now time.Time) time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var horizon time.Time
	for _, recs := range s.byPatient {
		for _, r := range recs {
			if !r.expires.IsZero() && !r.expires.Before(now) &&
				(horizon.IsZero() || r.expires.Before(horizon)) {
				horizon = r.expires
			}
		}
	}
	return horizon
}
