package workflow

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/vocab"
)

// LargeHospital generates a multi-department configuration for scale
// experiments: departments copies of the default ward's roster and
// behaviour mix, with per-department staff names and proportionally
// scaled rates. Ground-truth bookkeeping works exactly as in
// DefaultHospital, so extraction quality remains measurable at scale.
func LargeHospital(seed int64, departments int) Config {
	if departments < 1 {
		departments = 1
	}
	v := vocab.Sample()
	ps := scenario.PolicyStore()
	cfg := Config{
		Vocab:            v,
		Policy:           ps,
		Seed:             seed,
		DocumentedPerDay: 40 * float64(departments),
	}
	// Ordered roster: the staff list feeds the seeded simulator, so
	// its order must be deterministic run to run.
	roleCounts := []struct {
		role string
		n    int
	}{
		{"nurse", 6}, {"doctor", 3}, {"psychiatrist", 1}, {"clerk", 3}, {"lab_tech", 2},
	}
	for d := 0; d < departments; d++ {
		for _, rc := range roleCounts {
			for i := 0; i < rc.n; i++ {
				cfg.Staff = append(cfg.Staff, Staff{
					Name: fmt.Sprintf("%s-%d-%d", rc.role, d, i),
					Role: rc.role,
				})
			}
		}
	}
	// The same informal practices as the default ward, at aggregate
	// rates; user pools span all departments (role-wide), which is
	// realistic for organization-level habits.
	for _, b := range []Behavior{
		{Data: "referral", Purpose: "registration", Role: "nurse", PerDay: 8},
		{Data: "prescription", Purpose: "treatment", Role: "lab_tech", PerDay: 5},
		{Data: "insurance", Purpose: "billing", Role: "clerk", PerDay: 6},
		{Data: "referral", Purpose: "treatment", Role: "doctor", PerDay: 4},
	} {
		b.PerDay *= float64(departments)
		cfg.Informal = append(cfg.Informal, b)
	}
	// One single-user violation per department.
	for d := 0; d < departments; d++ {
		cfg.Violations = append(cfg.Violations, Behavior{
			Data: "psychiatry", Purpose: "research", Role: "clerk", PerDay: 0.7,
			Users: []string{fmt.Sprintf("clerk-%d-0", d)}, OffHours: true,
		})
	}
	return cfg
}
