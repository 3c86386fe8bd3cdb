package workflow

import (
	"repro/internal/scenario"
	"repro/internal/vocab"
)

// DefaultHospital returns a ready-to-run simulation of a mid-size
// ward: the Figure 3 policy store as documented practice, a roster of
// fifteen staff, four informal practices (including the paper's
// Referral:Registration:Nurse habit) and two snooping violations.
// Callers may adjust rates or seed before passing it to New.
func DefaultHospital(seed int64) Config {
	v := vocab.Sample()
	ps := scenario.PolicyStore()
	return Config{
		Vocab:            v,
		Policy:           ps,
		Seed:             seed,
		DocumentedPerDay: 40,
		Staff: []Staff{
			{Name: "mark", Role: "nurse"}, {Name: "tim", Role: "nurse"},
			{Name: "bob", Role: "nurse"}, {Name: "jane", Role: "nurse"},
			{Name: "rita", Role: "nurse"}, {Name: "omar", Role: "nurse"},
			{Name: "sarah", Role: "doctor"}, {Name: "li", Role: "doctor"},
			{Name: "ahmed", Role: "doctor"},
			{Name: "freud", Role: "psychiatrist"},
			{Name: "bill", Role: "clerk"}, {Name: "jason", Role: "clerk"},
			{Name: "amy", Role: "clerk"},
			{Name: "pat", Role: "lab_tech"}, {Name: "drew", Role: "lab_tech"},
		},
		Informal: []Behavior{
			// The paper's §5 habit: nurses register patients from
			// referral letters when the front desk is swamped.
			{Data: "referral", Purpose: "registration", Role: "nurse", PerDay: 8},
			// Lab techs check prescriptions before running panels.
			{Data: "prescription", Purpose: "treatment", Role: "lab_tech", PerDay: 5},
			// Clerks consult insurance data while preparing bills.
			{Data: "insurance", Purpose: "billing", Role: "clerk", PerDay: 6},
			// Doctors pull referral letters during treatment.
			{Data: "referral", Purpose: "treatment", Role: "doctor", PerDay: 4},
		},
		Violations: []Behavior{
			// A single clerk browsing psychiatric notes after hours.
			{Data: "psychiatry", Purpose: "research", Role: "clerk", PerDay: 0.7, Users: []string{"jason"}, OffHours: true},
			// One nurse reading a neighbour's address repeatedly.
			{Data: "address", Purpose: "treatment", Role: "nurse", PerDay: 0.5, Users: []string{"omar"}, OffHours: true},
		},
	}
}
