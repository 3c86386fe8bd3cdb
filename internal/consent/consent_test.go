package consent

import (
	"sort"
	"testing"
	"time"

	"repro/internal/vocab"
)

var t0 = time.Date(2007, 3, 1, 8, 0, 0, 0, time.UTC)

func store(t *testing.T, defaultAllow bool) *Store {
	t.Helper()
	return NewStore(vocab.Sample(), defaultAllow)
}

func TestDefaultApplies(t *testing.T) {
	s := store(t, true)
	if !s.Allowed("p1", "referral", "treatment") {
		t.Error("default-allow store denied")
	}
	d := s.Check("p1", "referral", "treatment")
	if d.Matched || d.Choice != Unset {
		t.Errorf("decision = %+v", d)
	}
	s2 := store(t, false)
	if s2.Allowed("p1", "referral", "treatment") {
		t.Error("default-deny store allowed")
	}
}

func TestOptOutSpecific(t *testing.T) {
	s := store(t, true)
	if err := s.Set("p1", "psychiatry", "research", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	if s.Allowed("p1", "psychiatry", "research") {
		t.Error("opt-out ignored")
	}
	// Unrelated category/purpose untouched.
	if !s.Allowed("p1", "psychiatry", "treatment") {
		t.Error("opt-out leaked to another purpose")
	}
	if !s.Allowed("p1", "referral", "research") {
		t.Error("opt-out leaked to another category")
	}
	// Another patient untouched.
	if !s.Allowed("p2", "psychiatry", "research") {
		t.Error("opt-out leaked to another patient")
	}
}

func TestCompositeOptOutCoversSubtree(t *testing.T) {
	s := store(t, true)
	// Opting out of all mental_health covers psychiatry and counseling.
	if err := s.Set("p1", "mental_health", "", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{"psychiatry", "counseling", "mental_health"} {
		if s.Allowed("p1", cat, "treatment") {
			t.Errorf("composite opt-out missed %s", cat)
		}
	}
	if !s.Allowed("p1", "referral", "treatment") {
		t.Error("composite opt-out over-reached")
	}
}

func TestSpecificOverridesGeneral(t *testing.T) {
	s := store(t, true)
	// Blanket opt-out of research, but explicit opt-in for lab
	// results: the deeper record wins.
	if err := s.Set("p1", "", "research", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("p1", "lab_result", "research", OptIn, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if s.Allowed("p1", "psychiatry", "research") {
		t.Error("blanket opt-out ignored")
	}
	if !s.Allowed("p1", "lab_result", "research") {
		t.Error("specific opt-in did not override")
	}
	d := s.Check("p1", "lab_result", "research")
	if !d.Matched || d.Choice != OptIn {
		t.Errorf("decision = %+v", d)
	}
}

func TestRecencyBreaksTies(t *testing.T) {
	s := store(t, true)
	if err := s.Set("p1", "referral", "billing", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("p1", "referral", "billing", OptIn, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !s.Allowed("p1", "referral", "billing") {
		t.Error("later equally-specific record should win")
	}
	// Flip back.
	if err := s.Set("p1", "referral", "billing", OptOut, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if s.Allowed("p1", "referral", "billing") {
		t.Error("latest record should win")
	}
}

func TestRevoke(t *testing.T) {
	s := store(t, true)
	if err := s.Set("p1", "psychiatry", "", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	if n := s.Revoke("P1"); n != 1 {
		t.Errorf("revoked %d records", n)
	}
	if !s.Allowed("p1", "psychiatry", "treatment") {
		t.Error("revocation did not restore default")
	}
	if n := s.Revoke("p1"); n != 0 {
		t.Errorf("second revoke = %d", n)
	}
}

func TestSetErrors(t *testing.T) {
	s := store(t, true)
	if err := s.Set("", "a", "b", OptOut, t0); err == nil {
		t.Error("empty patient accepted")
	}
	if err := s.Set("p", "a", "b", Unset, t0); err == nil {
		t.Error("Unset choice accepted")
	}
}

func TestOptedOut(t *testing.T) {
	s := store(t, true)
	if err := s.Set("bob", "psychiatry", "", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("amy", "mental_health", "research", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("carol", "referral", "", OptOut, t0); err != nil {
		t.Fatal(err)
	}
	got := s.OptedOut("psychiatry", "research")
	if len(got) != 2 || got[0] != "amy" || got[1] != "bob" {
		t.Errorf("OptedOut = %v", got)
	}
	got = s.OptedOut("psychiatry", "treatment")
	if len(got) != 1 || got[0] != "bob" {
		t.Errorf("OptedOut(treatment) = %v", got)
	}
	if got := s.OptedOut("address", "billing"); len(got) != 0 {
		t.Errorf("OptedOut(address) = %v", got)
	}
	pats := s.Patients()
	if len(pats) != 3 {
		t.Errorf("Patients = %v", pats)
	}
}

func TestChoiceString(t *testing.T) {
	if OptIn.String() != "opt-in" || OptOut.String() != "opt-out" || Unset.String() != "unset" {
		t.Error("choice strings wrong")
	}
}

func TestConsentExpiry(t *testing.T) {
	s := store(t, true)
	// Opt-out valid for thirty days.
	if err := s.SetWithExpiry("p1", "psychiatry", "", OptOut, t0, t0.Add(30*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if s.CheckAt("p1", "psychiatry", "research", t0.Add(24*time.Hour)).Allowed {
		t.Error("opt-out ignored inside validity window")
	}
	if !s.CheckAt("p1", "psychiatry", "research", t0.Add(31*24*time.Hour)).Allowed {
		t.Error("expired opt-out still applied")
	}
	// The expired record also stops masking less-specific ones.
	if err := s.SetWithExpiry("p1", "", "", OptOut, t0, t0.Add(10*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	d := s.CheckAt("p1", "referral", "treatment", t0.Add(11*24*time.Hour))
	if !d.Allowed || d.Matched {
		t.Errorf("expired blanket record applied: %+v", d)
	}
	// Invalid expiry rejected.
	if err := s.SetWithExpiry("p1", "a", "b", OptOut, t0, t0); err == nil {
		t.Error("expiry at record time accepted")
	}
	if err := s.SetWithExpiry("p1", "a", "b", OptOut, t0, t0.Add(-time.Hour)); err == nil {
		t.Error("expiry before record time accepted")
	}
}

// Check decides whether the patient's data in the given category may
// be used for the given purpose, as of now. See CheckAt.
func (s *Store) Check(patient, data, purpose string) Decision {
	return s.CheckAt(patient, data, purpose, time.Now())
}

// CheckAt decides whether the patient's data in the given category
// may be used for the given purpose at instant now. Specificity: a
// record matches when its data term subsumes the requested category
// and its purpose term subsumes the requested purpose (empty terms
// subsume everything) and it has not expired. Among matches, deeper
// (more specific) records win; ties break to the most recent record.
func (s *Store) CheckAt(patient, data, purpose string, now time.Time) Decision {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.decideLocked(s.byPatient[vocab.Norm(patient)], data, purpose, now)
}

// Allowed is Check(...).Allowed.
func (s *Store) Allowed(patient, data, purpose string) bool {
	return s.Check(patient, data, purpose).Allowed
}

// Patients lists patients with recorded choices, sorted.
func (s *Store) Patients() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byPatient))
	for p := range s.byPatient {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// OptedOut returns the patients whose recorded choices deny the given
// (data, purpose) access as of now; the enforcement layer rewrites
// queries with a patient exclusion predicate built from this set.
func (s *Store) OptedOut(data, purpose string) []string {
	return s.OptedOutAt(data, purpose, time.Now())
}
