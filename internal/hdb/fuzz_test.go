package hdb

import "testing"

// FuzzEnforcedQuery sends random and mutated SQL, principals, purposes
// and break-glass reasons through Query or BreakGlass on one stack and
// through the reference interpreter (reference_test.go) on its twin,
// each query twice (cold and warm plan), and requires what runDiff
// compares to match: rows, Access reports, error text and the audit
// trail.
func FuzzEnforcedQuery(f *testing.F) {
	for _, s := range []struct {
		sql, user, role, purpose, reason string
		breakGlass                       bool
	}{
		{`SELECT patient, referral FROM records`, "tim", "nurse", "treatment", "", false},
		{`SELECT patient, referral, psychiatry FROM records`, "tim", "nurse", "treatment", "", false},
		{`SELECT psychiatry FROM records`, "bill", "clerk", "billing", "", false},
		{`SELECT patient, referral FROM records WHERE psychiatry = 'anxiety'`, "tim", "nurse", "treatment", "", false},
		{`SELECT patient, referral FROM records ORDER BY psychiatry`, "tim", "nurse", "treatment", "", false},
		{`SELECT * FROM records`, "tim", "nurse", "healthcare", "", false},
		{`SELECT patient, referral FROM records`, "sam", "medical_staff", "treatment", "", false},
		{`SELECT patient, psychiatry FROM records`, "bill", "clerk", "billing", "emergency", true},
		{`SELECT r.referral FROM records r JOIN records s ON r.patient = s.patient`, "tim", "nurse", "treatment", "", false},
		{`SELECT count(*), referral FROM records GROUP BY referral`, "tim", "nurse", "treatment", "", false},
		{`SELEC patient FROM records`, "tim", "nurse", "treatment", "", false},
		{`INSERT INTO records VALUES ('p4','a','b','c','d')`, "tim", "nurse", "treatment", "", false},
		{`SELECT patient FROM records`, "", "nurse", "   ", "", true},
	} {
		f.Add(s.sql, s.user, s.role, s.purpose, s.reason, s.breakGlass)
	}
	f.Fuzz(func(t *testing.T, sql, user, role, purpose, reason string, breakGlass bool) {
		st := diffStep{name: "fuzz", p: Principal{User: user, Role: role}, purpose: purpose,
			sql: sql, reason: reason, breakGlass: breakGlass}
		runDiff(t, []diffStep{st, st})
	})
}
