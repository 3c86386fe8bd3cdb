// Package server exposes a PRIMA system over HTTP with a JSON API:
// enforced queries, break-glass access, consent management, policy
// administration, coverage reports and refinement rounds. It is the
// network face of the Figure 4 architecture for integrations that do
// not link the Go library directly.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	prima "repro"
	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/hdb"
	"repro/internal/minidb"
)

// Server is the HTTP handler set around a PRIMA system.
type Server struct {
	sys *prima.System
	mux *http.ServeMux
}

// New builds a Server around a system.
func New(sys *prima.System) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/breakglass", s.handleBreakGlass)
	s.mux.HandleFunc("/policy/rules", s.handleRules)
	s.mux.HandleFunc("/consent", s.handleConsent)
	s.mux.HandleFunc("/coverage", s.handleCoverage)
	s.mux.HandleFunc("/patterns", s.handlePatterns)
	s.mux.HandleFunc("/refine", s.handleRefine)
	s.mux.HandleFunc("/generalize", s.handleGeneralize)
	s.mux.HandleFunc("/audit", s.handleAudit)
	s.mux.HandleFunc("/report", s.handleReport)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type errorBody struct {
	Error string `json:"error"`
}

// bufPool recycles response-encoding buffers across requests. Bodies
// are marshalled into a pooled buffer and written in one call, which
// lets the handler set Content-Length and avoids the per-chunk
// flushing of streaming straight into the ResponseWriter. Buffers
// that grew past maxPooledBuf are dropped instead of pinned.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		http.Error(w, `{"error":"server: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// writeBody sends one fully materialized JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// Static response shapes are marshalled once at startup rather than
// per request.
var (
	healthBody       = []byte("{\"status\":\"ok\"}\n")
	postRequiredBody = []byte("{\"error\":\"server: POST required\"}\n")
)

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func writePostRequired(w http.ResponseWriter) {
	writeBody(w, http.StatusMethodNotAllowed, postRequiredBody)
}

// maxBodyBytes bounds every JSON request body. The largest bodies the
// API expects (a refinement round's decision map, a policy rule) are
// a few kilobytes.
const maxBodyBytes = 1 << 20

// decode reads one JSON request body of at most maxBodyBytes into v.
// On failure it writes the error response — 413 for an oversized
// body, 400 for anything else — and returns false.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("server: bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, healthBody)
}

// QueryRequest is the body of POST /query and /breakglass.
type QueryRequest struct {
	User    string `json:"user"`
	Role    string `json:"role"`
	Purpose string `json:"purpose"`
	Reason  string `json:"reason,omitempty"` // break-glass only
	SQL     string `json:"sql"`
}

// QueryResponse carries result rows (stringified) plus the access
// report.
type QueryResponse struct {
	Columns []string    `json:"columns"`
	Rows    [][]string  `json:"rows"`
	Access  *hdb.Access `json:"access"`
}

func toResponse(res *minidb.Result, acc *hdb.Access) QueryResponse {
	out := QueryResponse{Columns: res.Columns, Access: acc}
	// Rows stays nil (JSON null) when empty, as it always has; the
	// preallocation only kicks in for non-empty results.
	if len(res.Rows) > 0 {
		out.Rows = make([][]string, 0, len(res.Rows))
		for i := range res.Rows {
			out.Rows = append(out.Rows, res.RowStrings(i))
		}
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writePostRequired(w)
		return
	}
	var req QueryRequest
	if !decode(w, r, &req) {
		return
	}
	res, acc, err := s.sys.Query(req.User, req.Role, req.Purpose, req.SQL)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, hdb.ErrDenied) {
			status = http.StatusForbidden
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res, acc))
}

func (s *Server) handleBreakGlass(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writePostRequired(w)
		return
	}
	var req QueryRequest
	if !decode(w, r, &req) {
		return
	}
	res, acc, err := s.sys.BreakGlass(req.User, req.Role, req.Purpose, req.Reason, req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(res, acc))
}

// RuleRequest is the body of POST/DELETE /policy/rules.
type RuleRequest struct {
	Rule string `json:"rule"`
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string][]string{"rules": s.sys.Rules()})
	case http.MethodPost:
		var req RuleRequest
		if !decode(w, r, &req) {
			return
		}
		rule, err := s.sys.AddRule(req.Rule)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"rule": rule.Compact()})
	case http.MethodDelete:
		var req RuleRequest
		if !decode(w, r, &req) {
			return
		}
		ok, err := s.sys.RemoveRule(req.Rule)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("server: rule not present"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("server: GET, POST or DELETE"))
	}
}

// ConsentRequest is the body of POST /consent.
type ConsentRequest struct {
	Patient string `json:"patient"`
	Data    string `json:"data"`
	Purpose string `json:"purpose"`
	Choice  string `json:"choice"` // "opt-in" | "opt-out" | "revoke"
}

func (s *Server) handleConsent(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writePostRequired(w)
		return
	}
	var req ConsentRequest
	if !decode(w, r, &req) {
		return
	}
	switch strings.ToLower(req.Choice) {
	case "revoke":
		n := s.sys.RevokeConsent(req.Patient)
		writeJSON(w, http.StatusOK, map[string]int{"revoked": n})
	case "opt-in", "opt-out":
		choice := consent.OptIn
		if strings.ToLower(req.Choice) == "opt-out" {
			choice = consent.OptOut
		}
		if err := s.sys.SetConsent(req.Patient, req.Data, req.Purpose, choice, time.Now()); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"recorded": true})
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("server: choice must be opt-in, opt-out or revoke"))
	}
}

// CoverageResponse reports both coverage semantics.
type CoverageResponse struct {
	Coverage      float64  `json:"coverage"`     // Definition 9 (set semantics)
	RangePolicy   int      `json:"range_policy"` // #Range(P_PS)
	RangeAudit    int      `json:"range_audit"`  // #Range(P_AL)
	Overlap       int      `json:"overlap"`
	EntryCoverage float64  `json:"entry_coverage"` // §5 row counting
	EntriesTotal  int      `json:"entries_total"`
	Gaps          []string `json:"gaps,omitempty"` // uncovered ground rules
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("server: GET required"))
		return
	}
	rep, err := s.sys.Coverage()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	erep, err := s.sys.EntryCoverage()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := CoverageResponse{
		Coverage:      rep.Coverage,
		RangePolicy:   rep.RangeX,
		RangeAudit:    rep.RangeY,
		Overlap:       rep.Overlap,
		EntryCoverage: erep.Coverage,
		EntriesTotal:  erep.Total,
	}
	for _, g := range rep.Gaps {
		out.Gaps = append(out.Gaps, g.Rule.Compact())
	}
	writeJSON(w, http.StatusOK, out)
}

// PatternJSON serializes one discovered pattern.
type PatternJSON struct {
	Rule          string    `json:"rule"`
	Support       int       `json:"support"`
	DistinctUsers int       `json:"distinct_users"`
	FirstSeen     time.Time `json:"first_seen"`
	LastSeen      time.Time `json:"last_seen"`
}

// EvidenceJSON serializes pattern evidence.
type EvidenceJSON struct {
	Rule             string  `json:"rule"`
	Support          int     `json:"support"`
	DistinctUsers    int     `json:"distinct_users"`
	Concentration    float64 `json:"concentration"`
	OffHoursFraction float64 `json:"off_hours_fraction"`
	DaysActive       int     `json:"days_active"`
	Suspicion        float64 `json:"suspicion"`
}

func patternsJSON(pats []core.Pattern) []PatternJSON {
	out := make([]PatternJSON, len(pats))
	for i, p := range pats {
		out[i] = PatternJSON{
			Rule: p.Rule.Compact(), Support: p.Support, DistinctUsers: p.DistinctUsers,
			FirstSeen: p.FirstSeen, LastSeen: p.LastSeen,
		}
	}
	return out
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("server: GET required"))
		return
	}
	if r.URL.Query().Get("evidence") == "1" {
		evs, err := s.sys.PatternEvidence()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		out := make([]EvidenceJSON, len(evs))
		for i, ev := range evs {
			out[i] = EvidenceJSON{
				Rule:             ev.Rule.Compact(),
				Support:          ev.Support,
				DistinctUsers:    len(ev.UserCounts),
				Concentration:    ev.Concentration,
				OffHoursFraction: ev.OffHoursFraction,
				DaysActive:       ev.DaysActive,
				Suspicion:        ev.Suspicion(),
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"evidence": out})
		return
	}
	pats, err := s.sys.Patterns()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"patterns": patternsJSON(pats)})
}

// RefineRequest selects per-rule decisions; rules not listed get the
// default decision.
type RefineRequest struct {
	Default   string            `json:"default"`             // adopt|reject|investigate (default adopt)
	Decisions map[string]string `json:"decisions,omitempty"` // compact rule -> decision
}

// RefineResponse reports the round.
type RefineResponse struct {
	CoverageBefore float64       `json:"coverage_before"`
	CoverageAfter  float64       `json:"coverage_after"`
	Adopted        []string      `json:"adopted,omitempty"`
	Rejected       []PatternJSON `json:"rejected,omitempty"`
	Investigating  []PatternJSON `json:"investigating,omitempty"`
}

// ruleKey canonicalizes a compact rule string into its comparison key.
func ruleKey(compact string) (string, error) {
	r, err := prima.ParseRule(compact)
	if err != nil {
		return "", err
	}
	return r.Key(), nil
}

func parseDecision(s string) (core.Decision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "adopt":
		return core.Adopt, nil
	case "reject":
		return core.Reject, nil
	case "investigate":
		return core.Investigate, nil
	default:
		return 0, fmt.Errorf("server: unknown decision %q", s)
	}
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writePostRequired(w)
		return
	}
	var req RefineRequest
	if !decode(w, r, &req) {
		return
	}
	def, err := parseDecision(req.Default)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	decisions := make(map[string]core.Decision, len(req.Decisions))
	for rule, d := range req.Decisions {
		dec, err := parseDecision(d)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		key, err := ruleKey(rule)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		decisions[key] = dec
	}
	reviewer := core.ReviewerFunc(func(p core.Pattern) core.Decision {
		if d, ok := decisions[p.Rule.Key()]; ok {
			return d
		}
		return def
	})
	round, err := s.sys.RunRefinement(reviewer)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	out := RefineResponse{
		CoverageBefore: round.CoverageBefore,
		CoverageAfter:  round.CoverageAfter,
		Rejected:       patternsJSON(round.Rejected),
		Investigating:  patternsJSON(round.Investigating),
	}
	for _, rule := range round.Adopted {
		out.Adopted = append(out.Adopted, rule.Compact())
	}
	writeJSON(w, http.StatusOK, out)
}

// GeneralizeResponse reports a generalization pass.
type GeneralizeResponse struct {
	Lifted      int      `json:"lifted"`
	Removed     int      `json:"removed"`
	RulesBefore int      `json:"rules_before"`
	RulesAfter  int      `json:"rules_after"`
	Rules       []string `json:"rules"`
}

func (s *Server) handleGeneralize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writePostRequired(w)
		return
	}
	res, err := s.sys.Generalize()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, GeneralizeResponse{
		Lifted:      res.Lifted,
		Removed:     res.Removed,
		RulesBefore: res.RulesBefore,
		RulesAfter:  res.RulesAfter,
		Rules:       s.sys.Rules(),
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("server: GET required"))
		return
	}
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	title := r.URL.Query().Get("title")
	if err := s.sys.WriteReport(w, title); err != nil {
		// Headers are already out; report the failure in the body.
		fmt.Fprintf(w, "\n\nreport generation failed: %v\n", err)
	}
}

// maxAuditPage bounds the entries one GET /audit returns.
const maxAuditPage = 1000

// handleAudit pages through the audit log in append order:
// ?after=SEQ (default 0) and ?limit=N (default and maximum
// maxAuditPage) select the next entries with higher sequence numbers,
// and "next" is the sequence number to pass as after for the page
// that follows (equal to after once the log is exhausted). With
// ?status=exception the page returns only the exception-based entries
// among those it examined. The stats summarize the whole log, from
// its incremental index.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("server: GET required"))
		return
	}
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("server: after must be a sequence number, got %q", v))
			return
		}
		after = n
	}
	limit := maxAuditPage
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("server: limit must be a positive integer, got %q", v))
			return
		}
		limit = min(n, maxAuditPage)
	}
	l := s.sys.AuditLog()
	entries, next, err := l.Page(after, limit)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if q.Get("status") == "exception" {
		kept := entries[:0]
		for _, e := range entries {
			if e.Status == audit.Exception {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": entries, "next": next, "stats": l.Summary()})
}
