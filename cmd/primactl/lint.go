package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

// cmdLint statically analyzes a policy store against a vocabulary.
//
// Exit codes (stable, CI-consumable):
//
//	0  the policy is clean
//	1  the lint pass produced findings (printed before exiting)
//	2  usage error: bad flags, missing -policy, unreadable inputs
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	vocabFile := fs.String("vocab", "", "vocabulary file (default: paper sample)")
	policyFile := fs.String("policy", "", "policy store file (required)")
	name := fs.String("name", "PS", "policy name used in the report")
	jsonOut := fs.Bool("json", false, "emit the report as a JSON document")
	overbroad := fs.Float64("overbroad", 0, "PL008 threshold fraction in (0,1]; 0 = default 0.9, negative disables")
	if err := fs.Parse(args); err != nil {
		return &exitError{code: 2, err: err}
	}
	if *policyFile == "" {
		return &exitError{code: 2, err: fmt.Errorf("lint: -policy is required")}
	}
	v, err := loadVocab(*vocabFile)
	if err != nil {
		return &exitError{code: 2, err: err}
	}
	p, err := loadPolicy(*name, *policyFile)
	if err != nil {
		return &exitError{code: 2, err: err}
	}

	rep := lint.PolicyOpts(p, v, lint.Options{OverBroadFraction: *overbroad})
	if *jsonOut {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		return err
	}
	if !rep.Clean() {
		return &exitError{code: 1, err: fmt.Errorf("lint: %d finding(s) in policy %s", len(rep.Findings), rep.Policy)}
	}
	return nil
}
