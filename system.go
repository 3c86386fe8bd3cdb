package prima

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/hdb"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/vocab"
)

// Config parameterizes a System.
type Config struct {
	// Vocabulary defaults to the paper's Figure 1 sample.
	Vocabulary *Vocabulary
	// Policy is the initial policy store; defaults to an empty policy
	// named "PS".
	Policy *Policy
	// Site names the audit log (useful under federation).
	Site string
	// ConsentDefaultAllow selects the consent-store default (HIPAA
	// operations default to allowed). Defaults to true.
	ConsentDefaultDeny bool
	// Refine sets the refinement parameters used by Refine and
	// RunRefinement.
	Refine RefineOptions
}

// System is the assembled PRIMA architecture of Figure 4: privacy
// policy definition (control center), active enforcement, compliance
// auditing, audit management, and policy refinement around one
// clinical database.
type System struct {
	vocab    *Vocabulary
	ps       *Policy
	db       *minidb.Database
	consent  *consent.Store
	log      *audit.Log
	durable  *audit.Durable // non-nil when assembled by Open
	enforcer *hdb.Enforcer
	control  *hdb.ControlCenter
	session  *core.StreamSession
}

// New assembles an in-memory System from the config.
func New(cfg Config) *System {
	return assemble(cfg, minidb.NewDatabase(), audit.NewLog(cfg.Site), nil)
}

func assemble(cfg Config, db *minidb.Database, log *audit.Log, durable *audit.Durable) *System {
	v := cfg.Vocabulary
	if v == nil {
		v = vocab.Sample()
	}
	ps := cfg.Policy
	if ps == nil {
		ps = policy.New("PS")
	}
	cs := consent.NewStore(v, !cfg.ConsentDefaultDeny)
	enf := hdb.New(db, ps, v, cs, log)
	return &System{
		vocab:    v,
		ps:       ps,
		db:       db,
		consent:  cs,
		log:      log,
		durable:  durable,
		enforcer: enf,
		control:  hdb.NewControlCenter(enf, cs),
		session:  core.NewStreamSession(log, ps, v, cfg.Refine),
	}
}

// SystemOptions places a System's state on disk: the audit log
// becomes a durable store (group-commit WAL + a B+tree index that is
// the checkpoint) and the clinical database gains the file backend for
// tables created with STORAGE file.
type SystemOptions struct {
	// Dir is the root state directory: the audit store lives under
	// Dir/audit, file-backed clinical tables under Dir/db.
	Dir string
	// Audit tunes the durable audit store.
	Audit audit.DurableOptions
	// DB tunes the clinical database's file backend; its Dir field is
	// derived from Dir and may be left empty.
	DB minidb.StorageOptions
}

// Open assembles a System with durable storage attached, recovering
// any state a previous process left in o.Dir: audit entries are
// rebuilt from checkpoint plus WAL tail (refinement index and stream
// cursors included), and file-backed clinical tables reappear without
// re-running CREATE TABLE. The returned stats describe the recovery.
func Open(cfg Config, o SystemOptions) (*System, RecoveryStats, error) {
	var rs RecoveryStats
	if o.Dir == "" {
		return nil, rs, fmt.Errorf("prima: Open needs SystemOptions.Dir")
	}
	d, rs, err := audit.OpenDurable(cfg.Site, filepath.Join(o.Dir, "audit"), o.Audit)
	if err != nil {
		return nil, rs, err
	}
	dbo := o.DB
	dbo.Dir = filepath.Join(o.Dir, "db")
	db, err := minidb.OpenDatabase(dbo)
	if err != nil {
		d.Close()
		return nil, rs, err
	}
	return assemble(cfg, db, d.Log(), d), rs, nil
}

// Durable returns the durable audit store, or nil for an in-memory
// System.
func (s *System) Durable() *audit.Durable { return s.durable }

// SyncStorage blocks until every audit entry and clinical row so far
// is durable (group-commit fsync of the WALs). No-op without storage.
func (s *System) SyncStorage() error {
	if s.durable != nil {
		s.durable.Sync()
	}
	return s.db.Sync()
}

// CheckpointStorage folds the WALs into their checkpoints (the audit
// index, the clinical B+trees) and truncates them, bounding the next
// recovery's replay work. No-op without storage.
func (s *System) CheckpointStorage() error {
	if s.durable != nil {
		if err := s.durable.Checkpoint(); err != nil {
			return err
		}
	}
	return s.db.Checkpoint()
}

// Close releases durable storage after a final sync. In-memory state
// stays queryable; a system opened with Open should not append audit
// entries or mutate file-backed tables after Close.
func (s *System) Close() error {
	var first error
	if s.durable != nil {
		if err := s.durable.Close(); err != nil {
			first = err
		}
	}
	if err := s.db.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Vocabulary returns the system's vocabulary.
func (s *System) Vocabulary() *Vocabulary { return s.vocab }

// PolicyStore returns the live policy store P_PS.
func (s *System) PolicyStore() *Policy { return s.ps }

// DB returns the clinical database for administration (schema
// creation, fixture loading). Application reads must use Query.
func (s *System) DB() *minidb.Database { return s.db }

// AuditLog returns the compliance audit log.
func (s *System) AuditLog() *Log { return s.log }

// Enforcer returns the HDB middleware for advanced use.
func (s *System) Enforcer() *hdb.Enforcer { return s.enforcer }

// SetClock fixes the enforcer's clock, which stamps audit entries and
// decides consent expiry (deterministic logs).
func (s *System) SetClock(clock func() time.Time) { s.enforcer.SetClock(clock) }

// RegisterTable places a clinical table under enforcement.
func (s *System) RegisterTable(m TableMapping) error { return s.enforcer.RegisterTable(m) }

// AddRule enters a fine-grained policy rule through the control
// center ("data=referral & purpose=treatment & authorized=nurse").
func (s *System) AddRule(compact string) (Rule, error) { return s.control.AddRule(compact) }

// RemoveRule deletes a rule in compact form.
func (s *System) RemoveRule(compact string) (bool, error) { return s.control.RemoveRule(compact) }

// Rules lists the current policy rules in compact form.
func (s *System) Rules() []string { return s.control.Rules() }

// SetConsent records a patient consent choice.
func (s *System) SetConsent(patient, data, purpose string, choice ConsentChoice, at time.Time) error {
	return s.control.SetConsent(patient, data, purpose, choice, at)
}

// RevokeConsent drops every choice recorded for the patient.
func (s *System) RevokeConsent(patient string) int { return s.consent.Revoke(patient) }

// Query runs an enforced, audited SELECT on behalf of (user, role)
// for the stated purpose.
func (s *System) Query(user, role, purpose, sql string) (*minidb.Result, *Access, error) {
	return s.enforcer.Query(Principal{User: user, Role: role}, purpose, sql)
}

// BreakGlass runs the exception-based access path: policy and consent
// are bypassed, the access is audited with status 0 and the reason.
func (s *System) BreakGlass(user, role, purpose, reason, sql string) (*minidb.Result, *Access, error) {
	return s.enforcer.BreakGlass(Principal{User: user, Role: role}, purpose, reason, sql)
}

// Coverage computes Algorithm 1 coverage of the policy store with
// respect to the audit log's policy P_AL (Definition 9 set
// semantics), with gap explanations. P_AL is built from the log's
// incremental per-rule index in O(groups), with no snapshot.
func (s *System) Coverage() (*CoverageReport, error) {
	return core.AuditCoverage(s.ps, s.log.Groups(), s.vocab)
}

// EntryCoverage computes row-level coverage over the audit log (the
// paper's §5 counting), served from the log's incremental per-rule
// index in O(groups). Use core.EntryCoverage over a Snapshot when the
// uncovered rows themselves are needed (WriteReport does).
func (s *System) EntryCoverage() (*EntryCoverageReport, error) {
	return core.GroupCoverage(s.ps, s.log.Groups(), s.vocab)
}

// Patterns runs refinement (Algorithm 2) over the audit log without
// adopting anything; the analysis is served from the incremental
// index when the session options allow it.
func (s *System) Patterns() ([]Pattern, error) {
	return core.RefineFromLog(s.ps, s.log, s.vocab, s.session.Opts)
}

// PatternEvidence runs refinement and annotates each useful pattern
// with its behavioural evidence, sorted safest-first. With the default
// analysis, patterns and evidence come from one read of the log's
// incremental index; custom extractors or attributes fall back to a
// snapshot of the practice rows.
func (s *System) PatternEvidence() ([]PatternEvidence, error) {
	if core.IndexExtractable(s.session.Opts) {
		groups := s.log.Groups()
		patterns, err := core.PatternsFromGroups(groups, s.session.Opts)
		if err != nil {
			return nil, err
		}
		if patterns, err = core.Prune(patterns, s.ps, s.vocab); err != nil {
			return nil, err
		}
		return core.AnnotateGroups(groups, patterns), nil
	}
	patterns, err := core.RefineFromLog(s.ps, s.log, s.vocab, s.session.Opts)
	if err != nil {
		return nil, err
	}
	return core.AnnotatePatterns(core.Filter(s.log.Snapshot()), patterns), nil
}

// RunRefinement performs one reviewed refinement round over the audit
// log; adopted patterns take effect on subsequent queries. The round
// is served from the log's incremental index (O(groups) per round)
// rather than a full snapshot rescan.
func (s *System) RunRefinement(reviewer Reviewer) (Round, error) {
	return s.session.Run(reviewer)
}

// RefinementHistory returns the most recent rounds, oldest first.
// core.RecordRound bounds the history of a long-running system; each
// round's Number is its position among all rounds, so the first kept
// round tells how many were dropped, and WriteReport says so.
// The copy is the caller's: rounds that run later do not change it.
func (s *System) RefinementHistory() []Round { return s.session.Rounds() }

// WriteReport renders the privacy-officer Markdown report for the
// system's current state: both coverage semantics over the audit log,
// the refinement history, and audit statistics.
func (s *System) WriteReport(w io.Writer, title string) error {
	entries := s.log.Snapshot()
	cov, err := s.Coverage()
	if err != nil {
		return err
	}
	ec, err := core.EntryCoverage(s.ps, entries, s.vocab)
	if err != nil {
		return err
	}
	return report.Write(w, report.Input{
		Title:         title,
		Generated:     time.Now(),
		Coverage:      cov,
		EntryCoverage: ec,
		Rounds:        s.session.Rounds(),
		Entries:       entries,
	})
}

// Generalize rewrites the policy store into an equivalent smaller
// policy (lifting sibling rules to their vocabulary parents and
// dropping redundant rules) and applies it in place. The store's
// range — and therefore every coverage figure — is unchanged.
func (s *System) Generalize() (*core.GeneralizeResult, error) {
	res, err := core.Generalize(s.ps, s.vocab)
	if err != nil {
		return nil, err
	}
	s.ps.SetRules(res.Policy.Rules())
	return res, nil
}
