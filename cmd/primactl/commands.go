package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	prima "repro"
	"repro/internal/report"
	"repro/internal/scenario"
)

// loadVocab reads a vocabulary file, or the paper's sample when path
// is empty.
func loadVocab(path string) (*prima.Vocabulary, error) {
	if path == "" {
		return prima.SampleVocabulary(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return prima.ParseVocabulary(f)
}

func loadPolicy(name, path string) (*prima.Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return prima.ParsePolicy(name, f)
}

func loadAudit(path string) ([]prima.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return prima.ReadAuditCSV(f)
	default:
		return prima.ReadAuditJSONL(f)
	}
}

func cmdVocab(args []string) error {
	fs := flag.NewFlagSet("vocab", flag.ContinueOnError)
	file := fs.String("file", "", "vocabulary file (default: the paper's Figure 1 sample)")
	gen := fs.String("gen", "", "generate a synthetic vocabulary instead: BRANCHxDEPTH (e.g. 10x5 = 100k leaves)")
	stats := fs.Bool("stats", false, "print per-attribute node/leaf counts instead of the vocabulary text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var v *prima.Vocabulary
	if *gen != "" {
		branch, depth, err := parseGen(*gen)
		if err != nil {
			return err
		}
		v = prima.SyntheticVocabulary(branch, depth)
	} else {
		var err error
		v, err = loadVocab(*file)
		if err != nil {
			return err
		}
	}
	if *stats {
		for _, attr := range v.Attributes() {
			h := v.Hierarchy(attr)
			fmt.Printf("%s: %d value(s), %d ground\n", attr, len(h.Values()), len(h.Leaves()))
		}
		return nil
	}
	fmt.Print(v.TextString())
	return nil
}

// parseGen parses the BRANCHxDEPTH spec of vocab -gen.
func parseGen(spec string) (branch, depth int, err error) {
	if _, err := fmt.Sscanf(spec, "%dx%d", &branch, &depth); err != nil {
		return 0, 0, fmt.Errorf("vocab: -gen wants BRANCHxDEPTH (e.g. 10x5), got %q", spec)
	}
	if branch < 1 || depth < 0 || depth > 12 {
		return 0, 0, fmt.Errorf("vocab: -gen %q out of range (branch >= 1, 0 <= depth <= 12)", spec)
	}
	return branch, depth, nil
}

func cmdCoverage(args []string) error {
	fs := flag.NewFlagSet("coverage", flag.ContinueOnError)
	vocabFile := fs.String("vocab", "", "vocabulary file (default: paper sample)")
	policyFile := fs.String("policy", "", "policy store file (required)")
	auditFile := fs.String("audit", "", "audit log file, .jsonl or .csv (required)")
	explain := fs.Bool("explain", true, "print gap explanations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyFile == "" || *auditFile == "" {
		return fmt.Errorf("coverage requires -policy and -audit")
	}
	v, err := loadVocab(*vocabFile)
	if err != nil {
		return err
	}
	ps, err := loadPolicy("PS", *policyFile)
	if err != nil {
		return err
	}
	entries, err := loadAudit(*auditFile)
	if err != nil {
		return err
	}
	al := prima.EntriesToPolicy("AL", entries)
	erep, err := prima.EntryCoverage(ps, entries, v)
	if err != nil {
		return err
	}
	if !*explain {
		// Summary path: Algorithm 1 evaluated symbolically, so it
		// completes at any vocabulary scale without materializing a
		// ground Range.
		cov, err := prima.ComputeCoverage(ps, al, v)
		if err != nil {
			return err
		}
		fmt.Printf("policy rules: %d (range %d)\n", ps.Len(), prima.SymbolicRangeCard(ps, v))
		fmt.Printf("audit rules:  %d distinct (range %d) over %d rows\n",
			al.Len(), prima.SymbolicRangeCard(al, v), erep.Total)
		fmt.Printf("coverage (Definition 9, distinct rules): %.1f%%\n", cov*100)
		fmt.Printf("coverage (§5 row counting):              %.1f%% (%d/%d)\n",
			erep.Coverage*100, erep.Covered, erep.Total)
		return nil
	}
	rep, err := prima.CoverageDetail(ps, al, v)
	if err != nil {
		return err
	}
	fmt.Printf("policy rules: %d (range %d)\n", ps.Len(), rep.RangeX)
	fmt.Printf("audit rules:  %d distinct (range %d) over %d rows\n", al.Len(), rep.RangeY, erep.Total)
	fmt.Printf("coverage (Definition 9, distinct rules): %.1f%% (%d/%d)\n",
		rep.Coverage*100, rep.Overlap, rep.RangeY)
	fmt.Printf("coverage (§5 row counting):              %.1f%% (%d/%d)\n",
		erep.Coverage*100, erep.Covered, erep.Total)
	if len(rep.Gaps) > 0 {
		fmt.Println("uncovered accesses:")
		for _, g := range rep.Gaps {
			fmt.Printf("  %s\n", g.Rule.Compact())
			for _, nm := range g.NearMisses {
				fmt.Printf("    near miss: %s\n", nm)
			}
		}
	}
	return nil
}

func cmdRefine(args []string) error {
	fs := flag.NewFlagSet("refine", flag.ContinueOnError)
	vocabFile := fs.String("vocab", "", "vocabulary file (default: paper sample)")
	policyFile := fs.String("policy", "", "policy store file (required)")
	auditFile := fs.String("audit", "", "audit log file, .jsonl or .csv (required)")
	support := fs.Int("support", 5, "threshold frequency f")
	users := fs.Int("users", 2, "minimum distinct users")
	strict := fs.Bool("strict", false, "use the literal COUNT(*) > f comparator")
	mining := fs.Bool("mining", false, "use the Apriori extractor instead of SQL")
	adopt := fs.Bool("adopt", false, "adopt the discovered patterns into the policy")
	out := fs.String("out", "", "write the refined policy to this file (with -adopt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyFile == "" || *auditFile == "" {
		return fmt.Errorf("refine requires -policy and -audit")
	}
	v, err := loadVocab(*vocabFile)
	if err != nil {
		return err
	}
	ps, err := loadPolicy("PS", *policyFile)
	if err != nil {
		return err
	}
	entries, err := loadAudit(*auditFile)
	if err != nil {
		return err
	}
	opts := prima.RefineOptions{
		MinSupport:       *support,
		MinDistinctUsers: *users,
		StrictGreater:    *strict,
	}
	if *mining {
		opts.Extractor = prima.MiningExtractor(false)
	}
	before, err := prima.EntryCoverage(ps, entries, v)
	if err != nil {
		return err
	}
	patterns, err := prima.Refine(ps, entries, v, opts)
	if err != nil {
		return err
	}
	fmt.Printf("coverage before: %.1f%% (%d/%d rows)\n", before.Coverage*100, before.Covered, before.Total)
	if len(patterns) == 0 {
		fmt.Println("no useful patterns found")
		return nil
	}
	fmt.Printf("useful patterns (%d):\n", len(patterns))
	for _, p := range patterns {
		fmt.Printf("  %s  support=%d users=%d window=%s..%s\n",
			p.Rule.Compact(), p.Support, p.DistinctUsers,
			p.FirstSeen.Format("2006-01-02"), p.LastSeen.Format("2006-01-02"))
	}
	if *adopt {
		for _, p := range patterns {
			ps.Add(p.Rule)
		}
		after, err := prima.EntryCoverage(ps, entries, v)
		if err != nil {
			return err
		}
		fmt.Printf("coverage after adoption: %.1f%% (%d/%d rows)\n",
			after.Coverage*100, after.Covered, after.Total)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := ps.WriteText(f); err != nil {
				return err
			}
			fmt.Printf("refined policy written to %s\n", *out)
		}
	}
	return nil
}

// cmdPatterns mines frequent-itemset patterns from an audit log with
// the FP-growth engine. Unlike refine it does not need a policy store:
// with -policy it prunes covered patterns, without it every mined
// pattern prints.
func cmdPatterns(args []string) error {
	fs := flag.NewFlagSet("patterns", flag.ContinueOnError)
	vocabFile := fs.String("vocab", "", "vocabulary file (default: paper sample)")
	policyFile := fs.String("policy", "", "policy store file (optional: prune covered patterns)")
	auditFile := fs.String("audit", "", "audit log file, .jsonl or .csv (required)")
	support := fs.Int("support", 5, "threshold frequency f")
	users := fs.Int("users", 2, "minimum distinct users")
	partial := fs.Bool("partial", false, "keep partial-width itemsets (correlations SQL misses)")
	workers := fs.Int("workers", 0, "fpgrowth pattern-growth workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *auditFile == "" {
		return fmt.Errorf("patterns requires -audit")
	}
	v, err := loadVocab(*vocabFile)
	if err != nil {
		return err
	}
	ps := prima.NewPolicy("PS")
	if *policyFile != "" {
		if ps, err = loadPolicy("PS", *policyFile); err != nil {
			return err
		}
	}
	entries, err := loadAudit(*auditFile)
	if err != nil {
		return err
	}
	opts := prima.RefineOptions{
		MinSupport:       *support,
		MinDistinctUsers: *users,
		Extractor:        prima.FPGrowthExtractor(*partial, *workers),
	}
	patterns, err := prima.Refine(ps, entries, v, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%d audit rows\n", len(entries))
	if len(patterns) == 0 {
		fmt.Println("no frequent patterns")
		return nil
	}
	fmt.Printf("patterns (%d):\n", len(patterns))
	for _, p := range patterns {
		fmt.Printf("  %s  support=%d users=%d window=%s..%s\n",
			p.Rule.Compact(), p.Support, p.DistinctUsers,
			p.FirstSeen.Format("2006-01-02"), p.LastSeen.Format("2006-01-02"))
	}
	return nil
}

func cmdGeneralize(args []string) error {
	fs := flag.NewFlagSet("generalize", flag.ContinueOnError)
	vocabFile := fs.String("vocab", "", "vocabulary file (default: paper sample)")
	policyFile := fs.String("policy", "", "policy store file (required)")
	out := fs.String("out", "", "write the generalized policy to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyFile == "" {
		return fmt.Errorf("generalize requires -policy")
	}
	v, err := loadVocab(*vocabFile)
	if err != nil {
		return err
	}
	ps, err := loadPolicy("PS", *policyFile)
	if err != nil {
		return err
	}
	res, err := prima.Generalize(ps, v)
	if err != nil {
		return err
	}
	fmt.Printf("rules: %d -> %d (%d lifts, %d redundant removed; range unchanged at %d ground rules)\n",
		res.RulesBefore, res.RulesAfter, res.Lifted, res.Removed, res.RangeSize)
	for _, r := range res.Policy.Rules() {
		fmt.Printf("  %s\n", r.Compact())
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Policy.WriteText(f); err != nil {
			return err
		}
		fmt.Printf("written to %s\n", *out)
	}
	return nil
}

func cmdDemo(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("demo requires fig3 or table1")
	}
	switch args[0] {
	case "fig3":
		return demoFig3()
	case "table1":
		return demoTable1()
	default:
		return fmt.Errorf("unknown demo %q", args[0])
	}
}

func demoFig3() error {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	al := scenario.Figure3AuditPolicy()
	rep, err := prima.CoverageDetail(ps, al, v)
	if err != nil {
		return err
	}
	fmt.Println("PRIMA §3.3 / Figure 3 worked example")
	fmt.Println("policy store P_PS (composite):")
	for i, r := range ps.Rules() {
		fmt.Printf("  %d. %s\n", i+1, r.Compact())
	}
	fmt.Println("audit-log policy P_AL (ground):")
	for i, r := range al.Rules() {
		fmt.Printf("  %d. %s\n", i+1, r.Compact())
	}
	fmt.Printf("ComputeCoverage(P_PS, P_AL, V) = %.0f%%  (paper: 50%%)\n", rep.Coverage*100)
	fmt.Println("exception scenarios:")
	for _, g := range rep.Gaps {
		fmt.Printf("  %s\n", g.Rule.Compact())
		for _, nm := range g.NearMisses {
			fmt.Printf("    %s\n", nm)
		}
	}
	return nil
}

func demoTable1() error {
	v := scenario.Vocabulary()
	ps := scenario.PolicyStore()
	entries := scenario.Table1()
	fmt.Println("PRIMA §5 / Table 1 use case")
	fmt.Println("audit trail (PHI masked):")
	for i, e := range entries {
		// Raw User/Data/Purpose are PHI (prima:phi); the demo prints the
		// masked user plus the entry's policy projection instead.
		fmt.Printf("  t%-3d %-10s %s status=%d\n",
			i+1, report.RedactValue(e.User), e.Rule().Compact(), int(e.Status))
	}
	before, err := prima.EntryCoverage(ps, entries, v)
	if err != nil {
		return err
	}
	fmt.Printf("coverage = %.0f%%  (paper: 30%%)\n", before.Coverage*100)
	patterns, err := prima.Refine(ps, entries, v, prima.RefineOptions{})
	if err != nil {
		return err
	}
	for _, p := range patterns {
		fmt.Printf("refinement pattern: %s (support %d, %d users)  (paper: Referral:Registration:Nurse, t3 and t7-t10)\n",
			p.Rule.Compact(), p.Support, p.DistinctUsers)
		ps.Add(p.Rule)
	}
	after, err := prima.EntryCoverage(ps, entries, v)
	if err != nil {
		return err
	}
	fmt.Printf("coverage after adoption = %.0f%%\n", after.Coverage*100)
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	vocabFile := fs.String("vocab", "", "vocabulary file (default: paper sample)")
	policyFile := fs.String("policy", "", "policy store file (required)")
	auditFile := fs.String("audit", "", "audit log file, .jsonl or .csv (required)")
	title := fs.String("title", "PRIMA privacy report", "report title")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *policyFile == "" || *auditFile == "" {
		return fmt.Errorf("report requires -policy and -audit")
	}
	v, err := loadVocab(*vocabFile)
	if err != nil {
		return err
	}
	ps, err := loadPolicy("PS", *policyFile)
	if err != nil {
		return err
	}
	entries, err := loadAudit(*auditFile)
	if err != nil {
		return err
	}
	al := prima.EntriesToPolicy("AL", entries)
	cov, err := prima.CoverageDetail(ps, al, v)
	if err != nil {
		return err
	}
	ec, err := prima.EntryCoverage(ps, entries, v)
	if err != nil {
		return err
	}
	return report.Write(os.Stdout, report.Input{
		Title:         *title,
		Generated:     time.Now(),
		Coverage:      cov,
		EntryCoverage: ec,
		Entries:       entries,
	})
}
