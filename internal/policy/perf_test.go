package policy

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/vocab"
)

// TestPolicyIndexLargeStore exercises the key index over a store large
// enough that a linear-scan regression would be obvious: 10k rules
// built through FromRules, then interleaved Remove/Add, checking that
// the index, the rule slice and the version counter stay consistent.
func TestPolicyIndexLargeStore(t *testing.T) {
	const n = 10_000
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = MustRule(
			T("data", fmt.Sprintf("d%d", i)),
			T("purpose", fmt.Sprintf("p%d", i%97)),
			T("authorized", fmt.Sprintf("a%d", i%13)),
		)
	}
	// FromRules with every rule duplicated once: the duplicates must
	// all be dropped by the index, not appended.
	p := FromRules("PS", append(append([]Rule(nil), rules...), rules...)...)
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	v0 := p.Version()
	if v0 == 0 {
		t.Fatal("version did not advance on construction")
	}

	for _, r := range rules {
		if !p.Contains(r) {
			t.Fatalf("missing rule %s", r)
		}
	}

	// Remove every third rule; swap-delete must keep the index in step
	// with the moved rules.
	removed := make(map[string]bool)
	for i := 0; i < n; i += 3 {
		if !p.Remove(rules[i]) {
			t.Fatalf("Remove(%s) = false", rules[i])
		}
		removed[rules[i].Key()] = true
	}
	if p.Remove(rules[0]) {
		t.Fatal("second Remove of the same rule succeeded")
	}
	if got, want := p.Len(), n-len(removed); got != want {
		t.Fatalf("Len after removals = %d, want %d", got, want)
	}
	if p.Version() <= v0 {
		t.Fatalf("version %d did not advance past %d", p.Version(), v0)
	}

	// The surviving rule set must agree between Contains (index) and
	// Rules (slice), with no duplicates.
	seen := make(map[string]bool)
	for _, r := range p.Rules() {
		k := r.Key()
		if removed[k] {
			t.Fatalf("removed rule %s still present", r)
		}
		if seen[k] {
			t.Fatalf("duplicate rule %s in Rules()", r)
		}
		seen[k] = true
		if !p.Contains(r) {
			t.Fatalf("Rules() has %s but Contains is false", r)
		}
	}
	for _, r := range rules {
		if removed[r.Key()] {
			if p.Contains(r) {
				t.Fatalf("Contains(%s) true after Remove", r)
			}
		} else if !seen[r.Key()] {
			t.Fatalf("surviving rule %s missing from Rules()", r)
		}
	}

	// Removed rules can be re-added.
	for i := 0; i < n; i += 3 {
		if !p.Add(rules[i]) {
			t.Fatalf("re-Add(%s) = false", rules[i])
		}
	}
	if p.Len() != n {
		t.Fatalf("Len after re-adds = %d, want %d", p.Len(), n)
	}
}

// TestSetRulesRebuildsIndex checks that SetRules replaces both the
// rule slice and the index wholesale.
func TestSetRulesRebuildsIndex(t *testing.T) {
	p := FromRules("PS",
		MustRule(T("data", "old1")),
		MustRule(T("data", "old2")),
	)
	next := []Rule{
		MustRule(T("data", "new1")),
		MustRule(T("data", "new2")),
		MustRule(T("data", "new1")), // duplicate
	}
	p.SetRules(next)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if p.Contains(MustRule(T("data", "old1"))) {
		t.Fatal("index still holds a replaced rule")
	}
	if !p.Contains(MustRule(T("data", "new2"))) {
		t.Fatal("index missing a new rule")
	}
}

// TestConcurrentPolicyMutationAndRange hammers the policy store and
// the shared symbolic range cache from many goroutines. Run with -race.
func TestConcurrentPolicyMutationAndRange(t *testing.T) {
	v := vocab.Sample()
	p := New("PS")
	base := MustRule(T("data", "referral"), T("purpose", "registration"), T("authorized", "nurse"))
	p.Add(base)

	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := MustRule(
				T("data", "prescription"),
				T("purpose", "billing"),
				T("authorized", fmt.Sprintf("role%d", w)),
			)
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					p.Add(r)
				case 1:
					p.Contains(r)
					p.Version()
				case 2:
					SharedSym.Range(p, v).ContainsTriple(v, "prescription", "billing", fmt.Sprintf("role%d", w))
				case 3:
					p.Remove(r)
				}
			}
		}(w)
	}
	wg.Wait()

	// The cache must converge to the final store contents.
	rg := SharedSym.Range(p, v)
	if !rg.ContainsTriple(v, "referral", "registration", "nurse") {
		t.Fatal("final range lost the base rule")
	}
}
