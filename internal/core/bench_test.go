package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// BenchmarkE14_CoverageOracle records Algorithm 1 on the symbolic
// production path next to its materializing oracle
// (materialized_test.go) at the differential floor of the root
// package's BenchmarkE14_SymbolicAnalysis: 1,296 ground data values
// is the comfortable ceiling of the oracle (15,552 ground rules per
// full-subtree rule), while the symbolic path answers the same query
// without expanding any of them. Both rows run here so the speedup
// stays in the benchmark record.
func BenchmarkE14_CoverageOracle(b *testing.B) {
	small := vocab.Synthetic(6, 4)
	sps := policy.FromRules("PS",
		policy.MustRule(policy.T("data", "n1"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
		policy.MustRule(policy.T("data", "n23"), policy.T("purpose", "healthcare"), policy.T("authorized", "medical_staff")),
	)
	sal := policy.FromRules("AL",
		policy.MustRule(policy.T("data", "n0"), policy.T("purpose", "treatment"), policy.T("authorized", "nurse")),
	)
	for _, mode := range []struct {
		name     string
		coverage func(px, py *policy.Policy, v *vocab.Vocabulary) (float64, error)
	}{{"small/symbolic", ComputeCoverage}, {"small/materialized", materializedCoverage}} {
		b.Run("coverage/"+mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := mode.coverage(sps, sal, small)
				if err != nil {
					b.Fatal(err)
				}
				if c <= 0 || c > 1 {
					b.Fatalf("coverage = %v", c)
				}
			}
		})
	}
}
