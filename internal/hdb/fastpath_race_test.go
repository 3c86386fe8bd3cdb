package hdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consent"
	"repro/internal/policy"
)

// The concurrency suite exercises the RCU fast path under -race:
// readers on Query/BreakGlass while writers churn the policy store,
// the vocabulary, and the consent registry. Each reader carries a
// tear detector — an invariant that holds for every individually
// consistent snapshot but breaks if a query mixes decision state from
// two generations.

func churnRule() policy.Rule {
	return policy.MustRule(
		policy.T("data", "payment_history"),
		policy.T("purpose", "billing"),
		policy.T("authorized", "manager"),
	)
}

func TestConcurrentEnforcement(t *testing.T) {
	s := newSide(t)
	s.enf.SetClock(time.Now) // stepping clock is not goroutine-safe

	const (
		readers = 4
		iters   = 300
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Mutator: flip an unrelated policy rule. The queried categories
	// (referral, psychiatry) keep their verdicts through every flip.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			r := churnRule()
			s.ps.Add(r)
			s.ps.Remove(r)
		}
	}()

	// Mutator: grow the vocabulary (generation bumps force snapshot
	// rebuilds; new leaves never intersect the queried categories).
	// The value set cycles so the hierarchy stays small — snapshot
	// rebuilds are O(vocabulary), and unbounded growth would turn the
	// reader loops quadratic (duplicate adds fail without a bump).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_ = s.v.Hierarchy("data").Add("financial", fmt.Sprintf("acct%d", i%32))
		}
	}()

	// Mutator: flip consent for p2 on a queried category. Readers
	// tolerate either state via the rows/OptedOut invariant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_ = s.cs.Set("p2", "referral", "", consent.OptOut, t0)
			s.cs.Revoke("p2")
		}
	}()

	// Monitor: snapshot versions must be monotone — an RCU publish
	// can lag the live counters but never regress.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var pver, vgen, cgen uint64
		for !stop.Load() {
			sn := s.enf.snap.Load()
			if sn == nil {
				continue
			}
			if sn.pver < pver || sn.vgen < vgen || sn.cgen < cgen {
				t.Errorf("snapshot regressed: (%d,%d,%d) after (%d,%d,%d)",
					sn.pver, sn.vgen, sn.cgen, pver, vgen, cgen)
				return
			}
			pver, vgen, cgen = sn.pver, sn.vgen, sn.cgen
		}
	}()

	// Readers: enforced query with two tear detectors. Masked must be
	// exactly [psychiatry] on every iteration (the churned rule and
	// vocabulary leaves never affect it), and the row count must agree
	// with the consent exclusion reported by the same Access — a torn
	// snapshot/plan mix breaks one or the other.
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, acc, err := s.enf.Query(nurse(), "treatment",
					`SELECT patient, referral, psychiatry FROM records`)
				if err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
				if len(acc.Masked) != 1 || acc.Masked[0] != "psychiatry" {
					errs <- fmt.Errorf("masked = %v", acc.Masked)
					return
				}
				if len(res.Rows) != 3-acc.OptedOut {
					errs <- fmt.Errorf("rows = %d with optedOut = %d", len(res.Rows), acc.OptedOut)
					return
				}
			}
			errs <- nil
		}()
	}

	// Break-glass reader: bypasses the decision layer, so it must see
	// all rows unmasked regardless of churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			res, acc, err := s.enf.BreakGlass(nurse(), "treatment", "drill",
				`SELECT patient, psychiatry FROM records`)
			if err != nil {
				errs <- fmt.Errorf("breakglass: %w", err)
				return
			}
			if len(res.Rows) != 3 || !acc.Exception || len(acc.Masked) != 0 {
				errs <- fmt.Errorf("breakglass rows = %d, access = %+v", len(res.Rows), acc)
				return
			}
		}
		errs <- nil
	}()

	for i := 0; i < readers+1; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced: the final outcome must match the final (restored)
	// state — original policy verdicts, no consent exclusions.
	res, acc, err := s.enf.Query(nurse(), "treatment",
		`SELECT patient, referral, psychiatry FROM records`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || acc.OptedOut != 0 ||
		len(acc.Masked) != 1 || acc.Masked[0] != "psychiatry" {
		t.Errorf("post-quiesce rows = %d, access = %+v", len(res.Rows), acc)
	}
}

// TestConcurrentPlanAndFlush races plan compilation against plan-cache
// and decision-snapshot flushes, with readers in flight.
func TestConcurrentPlanAndFlush(t *testing.T) {
	s := newSide(t)
	s.enf.SetClock(time.Now)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.enf.FlushPlans()
		}
	}()

	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sql := fmt.Sprintf(`SELECT patient, referral FROM records LIMIT %d`, i%5+1)
				res, _, err := s.enf.Query(nurse(), "treatment", sql)
				if err != nil {
					errs <- err
					return
				}
				if want := i%5 + 1; len(res.Rows) != min(want, 3) {
					errs <- fmt.Errorf("rows = %d for limit %d", len(res.Rows), want)
					return
				}
			}
			errs <- nil
		}(r)
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
