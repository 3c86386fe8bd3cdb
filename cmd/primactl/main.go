// Command primactl is the PRIMA command-line tool: it computes policy
// coverage, runs policy refinement over audit logs, and replays the
// paper's worked examples.
//
// Usage:
//
//	primactl demo fig3                      reproduce the Figure 3 coverage example
//	primactl demo table1                    reproduce the §5 / Table 1 walk-through
//	primactl coverage -vocab V -policy P -audit A
//	primactl refine   -vocab V -policy P -audit A [-support 5] [-users 2] [-adopt -out P']
//	primactl patterns -audit A [-policy P] [-partial] [-workers N]
//	primactl generalize -vocab V -policy P [-out P']
//	primactl report   -vocab V -policy P -audit A [-title T]
//	primactl lint     -vocab V -policy P [-json] [-overbroad F]
//	primactl vocab    [-file V] [-gen BxD] [-stats]  print or generate a vocabulary
//	primactl audit recover -dir D [-site S] [-checkpoint=false] [-export out.jsonl]
//	primactl federate serve  -listen A [-policy P [-vocab V] [-interval 5s] [-reject X]] [-export out.jsonl]
//	primactl federate stream -addr A -audit F [-site S] [-batch N] [-window N]
//
// Vocabularies use the indented text format, policies one compact
// rule per line, audit logs JSONL or CSV (by extension).
package main

import (
	"errors"
	"fmt"
	"os"
)

// exitError carries a specific process exit status through run: lint
// distinguishes "findings" (1) from "usage error" (2) so scripts and
// CI can tell a dirty policy from a broken invocation.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exitError
	if errors.As(err, &ee) {
		return ee.code
	}
	return 1
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "primactl:", err)
		os.Exit(exitCode(err))
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("a subcommand is required: demo, coverage, refine, vocab")
	}
	switch args[0] {
	case "demo":
		return cmdDemo(args[1:])
	case "coverage":
		return cmdCoverage(args[1:])
	case "refine":
		return cmdRefine(args[1:])
	case "patterns":
		return cmdPatterns(args[1:])
	case "vocab":
		return cmdVocab(args[1:])
	case "generalize":
		return cmdGeneralize(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "lint":
		return cmdLint(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "federate":
		return cmdFederate(args[1:])
	case "help", "-h", "--help":
		fmt.Println("subcommands: demo {fig3|table1}, coverage, refine, patterns, generalize, report, lint, vocab, audit recover, federate {serve|stream}")
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}
