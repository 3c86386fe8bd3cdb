package hdb

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
)

// TestConcurrentQueriesAndRefinement exercises the live policy-update
// path: readers hammer Query/BreakGlass while a refinement loop
// adopts rules into the shared policy store. Run with -race.
func TestConcurrentQueriesAndRefinement(t *testing.T) {
	enf, _, log := fixture(t)
	// The fixture's stepping clock is not goroutine-safe; swap in a
	// locked one.
	enf.SetClock(timeNowSafe())

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := Principal{User: "worker", Role: "nurse"}
			for i := 0; i < rounds; i++ {
				_, _, err := enf.Query(p, "registration", `SELECT referral FROM records`)
				if err != nil && !errors.Is(err, ErrDenied) {
					errs <- err
					return
				}
				if errors.Is(err, ErrDenied) {
					if _, _, err := enf.BreakGlass(p, "registration", "load test",
						`SELECT referral FROM records`); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	// Concurrent refinement: adopt from whatever the log holds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := core.NewSession(enf.ps, enf.v, core.Options{MinSupport: 3, MinDistinctUsers: 1})
		for i := 0; i < 10; i++ {
			if _, err := sess.Run(log.Snapshot(), core.AdoptAll); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every audit entry valid; totals consistent.
	for _, e := range log.Snapshot() {
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	st := audit.Summarize(log.Snapshot())
	if st.Total == 0 {
		t.Fatal("no audit entries recorded")
	}
}

// timeNowSafe returns a race-free monotonically increasing clock.
func timeNowSafe() func() time.Time {
	var mu sync.Mutex
	base := t0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		base = base.Add(time.Millisecond)
		return base
	}
}
