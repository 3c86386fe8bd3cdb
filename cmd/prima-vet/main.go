// Command prima-vet is the repo's custom static-analysis pass. It
// type-checks packages with only the standard library (go/ast,
// go/parser, go/types) and applies two layers of repo-specific
// analyzers.
//
// Per-package (layer 1):
//
//	lockcheck   lock discipline on mutex-guarded structs
//	puritycheck determinism of the coverage/refinement algebra
//	errcheck    no discarded errors on audit/codec/federation paths
//	codecpair   Encode*/Decode* symmetry with round-trip tests
//
// Interprocedural (layer 2, whole-module call graph + CFG dataflow):
//
//	lockorder   lock acquisition graph; cycles and pinned-order
//	            inversions (lockorder.txt) are potential deadlocks
//	phileak     taint from prima:phi fields into logs, error strings,
//	            and responses that bypass prima:redact sanitizers
//	arenasafe   no mutation of prima:arena values after publication
//
// SSA-form dataflow (layer 3, pruned SSA over the layer-2 CFGs:
// versioned defs, phi nodes, def-use chains, a small value lattice):
//
//	atomicsafe  no plain access to sync/atomic-managed values; no
//	            mutation of module structs after an atomic publication
//	goleak      every spawned goroutine has a reachable termination
//	            path (context/done case, channel close, bounded loop)
//	chanuse     nil/closed channel operations; blocking channel ops
//	            while holding a module lock
//
// The same SSA form sharpens lockorder (mutex-pointer aliases resolve
// to their lock class) and phileak (flow-sensitive taint: rebinding a
// local kills the old version's taint).
//
// Usage:
//
//	prima-vet [-list] [-run a,b] [-json|-sarif] [-write-lockorder] [packages]
//
// Packages default to ./... . Findings print as file:line:col text by
// default; -json emits a JSON array and -sarif a SARIF 2.1.0 log on
// stdout. -write-lockorder regenerates cmd/prima-vet/lockorder.txt
// from the observed acquisition graph instead of reporting. Exit
// status is 0 when clean, 1 when any analyzer reports findings, 2 on
// usage or load errors (unknown flags and -run names included).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prima-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	writeLO := fs.Bool("write-lockorder", false, "regenerate cmd/prima-vet/lockorder.txt from the observed acquisition graph")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: prima-vet [-list] [-run a,b] [-json|-sarif] [-write-lockorder] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintf(stderr, "prima-vet: -json and -sarif are mutually exclusive\n")
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "prima-vet: %v\n", err)
		return 2
	}
	loader, err := NewLoader(wd)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}

	var pkgs []*Package
	var findings []Finding
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(stderr, "prima-vet: %s: %v\n", dir, err)
			return 2
		}
		pkgs = append(pkgs, pkg)
		findings = append(findings, runSelected(selected, pkg)...)
	}

	// Layers 2 and 3: one whole-program pass over everything loaded.
	prog := BuildProgram(loader, pkgs)

	if *writeLO {
		return writeLockOrder(prog, stderr)
	}

	findings = append(findings, runProgramAnalyzers(selected, prog)...)

	switch {
	case *jsonOut:
		if err := writeJSON(stdout, loader.Root, findings); err != nil {
			fmt.Fprintf(stderr, "prima-vet: %v\n", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(stdout, loader.Root, selected, findings); err != nil {
			fmt.Fprintf(stderr, "prima-vet: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "prima-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
