package prima

import (
	"io"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/hdb"
	"repro/internal/lint"
	"repro/internal/mining"
	"repro/internal/policy"
	"repro/internal/vocab"
	"repro/internal/workflow"
)

// Re-exported model types, so applications can work entirely against
// the prima package.
type (
	// Vocabulary is the privacy policy vocabulary (paper Figure 1).
	Vocabulary = vocab.Vocabulary
	// Term is a RuleTerm (Definition 1).
	Term = policy.Term
	// Rule is a conjunction of RuleTerms (Definition 5).
	Rule = policy.Rule
	// Policy is a collection of rules (Definition 7).
	Policy = policy.Policy

	// Entry is one audit record in the paper's §4.2 schema.
	Entry = audit.Entry
	// Log is an append-only audit log.
	Log = audit.Log
	// Federation consolidates several site logs (paper §4.2).
	Federation = audit.Federation
	// DurableAuditOptions tunes the durable audit store (SystemOptions.Audit).
	DurableAuditOptions = audit.DurableOptions
	// RecoveryStats reports what Open rebuilt from disk.
	RecoveryStats = audit.RecoveryStats

	// Pattern is a refinement candidate (Algorithms 4–6).
	Pattern = core.Pattern
	// RefineOptions parameterizes refinement (f, c, extractor).
	RefineOptions = core.Options
	// PatternExtractor is the pluggable data-analysis interface of
	// Algorithm 4 (RefineOptions.Extractor).
	PatternExtractor = core.PatternExtractor
	// Round records one refinement round.
	Round = core.Round
	// Reviewer decides the fate of discovered patterns.
	Reviewer = core.Reviewer
	// ReviewerFunc adapts a function to Reviewer.
	ReviewerFunc = core.ReviewerFunc
	// Decision is a reviewer verdict.
	Decision = core.Decision
	// CoverageReport is the detailed outcome of Algorithm 1.
	CoverageReport = core.Report
	// GeneralizeResult reports a policy generalization pass.
	GeneralizeResult = core.GeneralizeResult
	// PatternEvidence is the behavioural evidence behind a pattern.
	PatternEvidence = core.Evidence
	// EntryCoverageReport is row-level coverage (§5 counting).
	EntryCoverageReport = core.EntryReport

	// Principal identifies a requesting user and role.
	Principal = hdb.Principal
	// TableMapping maps table columns to data categories.
	TableMapping = hdb.TableMapping
	// Access describes an enforced query's outcome.
	Access = hdb.Access

	// ConsentChoice is a recorded consent decision.
	ConsentChoice = consent.Choice

	// SimConfig parameterizes the clinical workflow simulator.
	SimConfig = workflow.Config
	// Simulator generates synthetic clinical audit trails.
	Simulator = workflow.Simulator
	// Behavior is one recurring access habit in a simulation.
	Behavior = workflow.Behavior
	// Staff is a roster member.
	Staff = workflow.Staff
	// ExtractionScore is precision/recall against ground truth.
	ExtractionScore = workflow.Score

	// LintFinding is one diagnostic from the policy-store linter.
	LintFinding = lint.Finding
	// LintReport is the outcome of linting a policy against a vocabulary.
	LintReport = lint.Report
	// LintOptions parameterizes a lint pass (PL008 threshold).
	LintOptions = lint.Options
)

// Reviewer decisions.
const (
	Adopt       = core.Adopt
	Reject      = core.Reject
	Investigate = core.Investigate
)

// Consent choices.
const (
	OptIn  = consent.OptIn
	OptOut = consent.OptOut
)

// Audit schema constants.
const (
	OpAllow         = audit.Allow
	OpDeny          = audit.Deny
	StatusRegular   = audit.Regular
	StatusException = audit.Exception
)

// ErrDenied is returned by Query when policy forbids the access; the
// caller may retry via BreakGlass.
var ErrDenied = hdb.ErrDenied

// AdoptAll is a Reviewer accepting every pattern.
var AdoptAll = core.AdoptAll

// SampleVocabulary returns the paper's Figure 1 vocabulary.
func SampleVocabulary() *Vocabulary { return vocab.Sample() }

// SyntheticVocabulary builds a SNOMED/ICD-scale benchmark vocabulary:
// a complete branch-ary data hierarchy of the given depth next to the
// paper's purpose and authorized hierarchies.
func SyntheticVocabulary(branch, depth int) *Vocabulary { return vocab.Synthetic(branch, depth) }

// ParseVocabulary reads a vocabulary in the indented text format.
func ParseVocabulary(r io.Reader) (*Vocabulary, error) { return vocab.ParseText(r) }

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary { return vocab.New() }

// ParseRule parses "attr=value & attr=value" into a Rule.
func ParseRule(s string) (Rule, error) { return policy.ParseRule(s) }

// MustRule builds a rule from terms, panicking on error.
func MustRule(terms ...Term) Rule { return policy.MustRule(terms...) }

// T constructs a Term.
func T(attr, value string) Term { return policy.T(attr, value) }

// NewPolicy returns an empty named policy.
func NewPolicy(name string) *Policy { return policy.New(name) }

// ParsePolicy reads a policy: one compact rule per line.
func ParsePolicy(name string, r io.Reader) (*Policy, error) { return policy.ParsePolicy(name, r) }

// ComputeCoverage is Algorithm 1 (Definition 9).
func ComputeCoverage(px, py *Policy, v *Vocabulary) (float64, error) {
	return core.ComputeCoverage(px, py, v)
}

// CoverageDetail computes coverage with per-gap explanations.
func CoverageDetail(px, py *Policy, v *Vocabulary) (*CoverageReport, error) {
	return core.Coverage(px, py, v)
}

// EntryCoverage computes row-level coverage over an audit snapshot.
func EntryCoverage(ps *Policy, entries []Entry, v *Vocabulary) (*EntryCoverageReport, error) {
	return core.EntryCoverage(ps, entries, v)
}

// Refine runs Algorithm 2 (Filter → ExtractPatterns → Prune) over an
// audit snapshot without adopting anything.
func Refine(ps *Policy, entries []Entry, v *Vocabulary, opts RefineOptions) ([]Pattern, error) {
	return core.Refinement(ps, entries, v, opts)
}

// Generalize rewrites a policy into an equivalent smaller one over
// the vocabulary (same range, fewer and more abstract rules).
func Generalize(ps *Policy, v *Vocabulary) (*GeneralizeResult, error) {
	return core.Generalize(ps, v)
}

// GatherEvidence computes the behavioural evidence (user
// concentration, off-hours activity, suspicion score) for a pattern
// rule over practice entries.
func GatherEvidence(practice []Entry, rule Rule) PatternEvidence {
	return core.GatherEvidence(practice, rule)
}

// SuspicionReviewer builds a reviewer that auto-adopts low-suspicion
// patterns, investigates mid-range ones and rejects violation-shaped
// ones.
func SuspicionReviewer(practice []Entry, investigateAt, rejectAt float64) Reviewer {
	return core.SuspicionReviewer(practice, investigateAt, rejectAt)
}

// NewLog returns an empty audit log for the named site.
func NewLog(site string) *Log { return audit.NewLog(site) }

// NewFederation builds an audit federation over source logs.
func NewFederation(sources ...*Log) *Federation { return audit.NewFederation(sources...) }

// ReadAuditJSONL / WriteAuditJSONL are the audit JSON Lines codec.
func ReadAuditJSONL(r io.Reader) ([]Entry, error)        { return audit.ReadJSONL(r) }
func WriteAuditJSONL(w io.Writer, entries []Entry) error { return audit.WriteJSONL(w, entries) }

// ReadAuditCSV / WriteAuditCSV are the Table 1-layout CSV codec.
func ReadAuditCSV(r io.Reader) ([]Entry, error)        { return audit.ReadCSV(r) }
func WriteAuditCSV(w io.Writer, entries []Entry) error { return audit.WriteCSV(w, entries) }

// EntriesToPolicy projects audit rows to the ground policy P_AL.
func EntriesToPolicy(name string, entries []Entry) *Policy { return audit.ToPolicy(name, entries) }

// MiningExtractor returns the Apriori-backed pattern extractor
// (paper §5's proposed upgrade) for use in RefineOptions.Extractor.
func MiningExtractor(keepPartial bool) core.PatternExtractor {
	return mining.Extractor{KeepPartial: keepPartial}
}

// FPGrowthExtractor returns the FP-growth pattern extractor: same
// output as MiningExtractor (differentially tested), built for audit
// scale — parallel per-shard tree construction and incremental
// streaming epochs. workers <= 0 sizes the pattern-growth pool to
// GOMAXPROCS.
func FPGrowthExtractor(keepPartial bool, workers int) core.PatternExtractor {
	return mining.FPGrowth{KeepPartial: keepPartial, Workers: workers}
}

// NewSimulator builds a clinical workflow simulator.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return workflow.New(cfg) }

// DefaultHospital returns a ready-to-run hospital simulation config.
func DefaultHospital(seed int64) SimConfig { return workflow.DefaultHospital(seed) }

// EvaluateExtraction scores found rules against ground truth.
func EvaluateExtraction(found, informal, violations []Rule) ExtractionScore {
	return workflow.Evaluate(found, informal, violations)
}

// Lint statically analyzes a policy store against a vocabulary,
// reporting unknown attributes/values, empty-Range rules,
// duplicate/subsumed/conflicting/over-broad rules, and unreachable
// vocabulary subtrees.
func Lint(p *Policy, v *Vocabulary) LintReport { return lint.Policy(p, v) }

// LintOpts is Lint with explicit options.
func LintOpts(p *Policy, v *Vocabulary, opts LintOptions) LintReport {
	return lint.PolicyOpts(p, v, opts)
}

// SymbolicRangeCard returns #Range_P computed symbolically — exact at
// any vocabulary scale, never materializing a ground rule.
func SymbolicRangeCard(p *Policy, v *Vocabulary) int64 {
	return policy.SharedSym.Range(p, v).Card()
}
