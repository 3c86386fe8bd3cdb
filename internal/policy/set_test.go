package policy

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRangeGroundPolicyIsIdentity(t *testing.T) {
	// Property: the range of a ground policy is the policy itself.
	v := sampleVocab()
	p := FromRules("AL",
		MustRule(T("data", "referral"), T("purpose", "treatment"), T("authorized", "nurse")),
		MustRule(T("data", "address"), T("purpose", "billing"), T("authorized", "clerk")),
	)
	rg, err := NewRange(p, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Len() != p.Len() {
		t.Fatalf("range of ground policy has %d rules, want %d", rg.Len(), p.Len())
	}
	for _, r := range p.Rules() {
		if !rg.Contains(r) {
			t.Errorf("range missing %v", r)
		}
	}
}

func TestRangeDeduplicates(t *testing.T) {
	v := sampleVocab()
	// demographic ⊇ address: the two rules share ground rules.
	p := FromRules("PS",
		MustRule(T("data", "demographic"), T("purpose", "billing")),
		MustRule(T("data", "address"), T("purpose", "billing")),
	)
	rg, err := NewRange(p, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Len() != 4 { // four demographic leaves; address already included
		t.Errorf("range = %d rules, want 4: %v", rg.Len(), rg.Keys())
	}
}

func TestRangeLimit(t *testing.T) {
	v := sampleVocab()
	p := FromRules("PS",
		MustRule(T("data", "phi"), T("purpose", "healthcare"), T("authorized", "medical_staff")),
	)
	if _, err := NewRange(p, v, 10); !errors.Is(err, ErrRangeTooLarge) {
		t.Errorf("want ErrRangeTooLarge, got %v", err)
	}
	rg, err := NewRange(p, v, 132)
	if err != nil || rg.Len() != 132 {
		t.Errorf("exact-fit range failed: %v, len %v", err, rg.Len())
	}
}

func TestRangeKeysSorted(t *testing.T) {
	v := sampleVocab()
	p := FromRules("PS", MustRule(T("data", "demographic"), T("purpose", "billing")))
	rg, err := NewRange(p, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := rg.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
}

// Property (quick): for random small policies over the sample
// vocabulary, Range(P) contains every rule's groundings and nothing
// else, and expanding twice is idempotent.
func TestRangeIdempotenceProperty(t *testing.T) {
	v := sampleVocab()
	dataVals := v.Hierarchy("data").Values()
	purposeVals := v.Hierarchy("purpose").Values()
	f := func(di, pi uint8, n uint8) bool {
		p := New("P")
		count := int(n%4) + 1
		for i := 0; i < count; i++ {
			d := dataVals[(int(di)+i)%len(dataVals)]
			u := purposeVals[(int(pi)+i*3)%len(purposeVals)]
			p.Add(MustRule(T("data", d), T("purpose", u)))
		}
		rg, err := NewRange(p, v, 0)
		if err != nil {
			return false
		}
		// Ground policy built from the range must have an identical range.
		gp := FromRules("G", rg.Rules()...)
		rg2, err := NewRange(gp, v, 0)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(rg.Keys(), rg2.Keys())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
