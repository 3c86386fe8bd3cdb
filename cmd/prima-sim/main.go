// Command prima-sim runs the clinical workflow simulator with a
// PRIMA refinement loop: it simulates epochs of hospital activity,
// refines the policy between epochs, and reports the coverage series
// (the quantitative version of the paper's Figure 2), extraction
// quality against ground truth, and optionally the raw audit log.
//
// Usage:
//
//	prima-sim [-seed 42] [-epochs 6] [-days 15] [-support 5] [-users 2]
//	          [-out audit.jsonl] [-policy-out refined.policy]
package main

import (
	"flag"
	"fmt"
	"os"

	prima "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/workflow"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prima-sim:", err)
		os.Exit(1)
	}
}

// runSweep measures extraction precision/recall as the threshold
// frequency f and distinct-user condition vary over one training
// window (experiment E5).
func runSweep(seed int64, days int) error {
	cfg := workflow.DefaultHospital(seed)
	sim, err := workflow.New(cfg)
	if err != nil {
		return err
	}
	entries, err := sim.Run(0, days)
	if err != nil {
		return err
	}
	informal, violations := sim.GroundTruth()
	st := audit.Summarize(entries)
	fmt.Printf("threshold sweep over %d days (%d entries, %d exceptions, seed %d)\n",
		days, st.Total, st.Exceptions, seed)
	fmt.Println("f,min_users,patterns,precision,recall")
	// One indexed log serves every threshold from its rule groups.
	l := audit.NewLog("sweep")
	if err := l.Append(entries...); err != nil {
		return err
	}
	for _, f := range []int{1, 2, 5, 10, 20, 50, 100, 200, 400, 800} {
		for _, u := range []int{1, 2, 3} {
			pats, err := core.RefineFromLog(cfg.Policy, l, cfg.Vocab, core.Options{
				MinSupport: f, MinDistinctUsers: u,
			})
			if err != nil {
				return err
			}
			var found []prima.Rule
			for _, p := range pats {
				found = append(found, p.Rule)
			}
			sc := workflow.Evaluate(found, informal, violations)
			fmt.Printf("%d,%d,%d,%.3f,%.3f\n", f, u, len(pats), sc.Precision, sc.Recall)
		}
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("prima-sim", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "simulation seed")
	epochs := fs.Int("epochs", 6, "number of training epochs")
	days := fs.Int("days", 15, "days per epoch")
	support := fs.Int("support", 5, "threshold frequency f")
	users := fs.Int("users", 2, "minimum distinct users")
	out := fs.String("out", "", "write the full audit log (JSONL) to this file")
	policyOut := fs.String("policy-out", "", "write the refined policy to this file")
	sweep := fs.Bool("sweep", false, "run the threshold sensitivity sweep (E5) instead of the epoch loop")
	suspicion := fs.Bool("suspicion", false, "review patterns with the behavioural suspicion scorer instead of adopting all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweep {
		return runSweep(*seed, *days**epochs)
	}

	cfg := workflow.DefaultHospital(*seed)
	sim, err := workflow.New(cfg)
	if err != nil {
		return err
	}
	sess := core.NewSession(cfg.Policy, cfg.Vocab, core.Options{
		MinSupport:       *support,
		MinDistinctUsers: *users,
	})

	fmt.Printf("PRIMA refinement loop: %d epochs x %d days, seed %d\n", *epochs, *days, *seed)
	fmt.Println("epoch,entries,exceptions,coverage_before,coverage_after,adopted")

	var full []audit.Entry
	var adoptedTotal int
	for epoch := 0; epoch < *epochs; epoch++ {
		entries, err := sim.Run(epoch**days, *days)
		if err != nil {
			return err
		}
		full = append(full, entries...)
		reviewer := core.Reviewer(core.AdoptAll)
		if *suspicion {
			reviewer = core.SuspicionReviewer(core.Filter(entries), 0.5, 0.85)
		}
		round, err := sess.Run(entries, reviewer)
		if err != nil {
			return err
		}
		adoptedTotal += len(round.Adopted)
		st := audit.Summarize(entries)
		fmt.Printf("%d,%d,%d,%.4f,%.4f,%d\n",
			epoch+1, st.Total, st.Exceptions, round.CoverageBefore, round.CoverageAfter, len(round.Adopted))
	}

	// Score the adopted rules against ground truth.
	var adopted []prima.Rule
	for _, round := range sess.History {
		adopted = append(adopted, round.Adopted...)
	}
	informal, violations := sim.GroundTruth()
	sc := workflow.Evaluate(adopted, informal, violations)
	fmt.Printf("adopted %d rules; extraction precision %.2f, recall %.2f (ground truth: %d informal, %d violations)\n",
		adoptedTotal, sc.Precision, sc.Recall, len(informal), len(violations))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := audit.WriteJSONL(f, full); err != nil {
			return err
		}
		fmt.Printf("audit log (%d entries) written to %s\n", len(full), *out)
	}
	if *policyOut != "" {
		f, err := os.Create(*policyOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cfg.Policy.WriteText(f); err != nil {
			return err
		}
		fmt.Printf("refined policy (%d rules) written to %s\n", cfg.Policy.Len(), *policyOut)
	}
	return nil
}
