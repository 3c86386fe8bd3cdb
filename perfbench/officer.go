package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	prima "repro"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/server"
)

// refineBody is the officer's fixed review decision: investigate every
// pattern, reject the simulator's snooping rule. Neither decision
// adopts a rule, so the policy store, and with it the cost of a round,
// stays fixed for the whole run.
const refineBody = `{"default":"investigate","decisions":{"data=psychiatry & purpose=research & authorized=clerk":"reject"}}`

// officerState is the privacy-officer system: a durable prima.System
// recovered from a history on disk, reviewed through server.ServeHTTP
// while a writer appends the following days.
type officerState struct {
	dir     string
	cfg     prima.Config
	history int           // entries written in set-up
	future  []audit.Entry // entries of the days the writer appends, in order
	sys     *prima.System
	srv     *server.Server
	rs      prima.RecoveryStats
}

func buildOfficer(seed int64, sz sizes, dir string) (*officerState, error) {
	days, err := simulateDays(seed, sz.Departments, sz.HistoryDays+sz.WriterDays)
	if err != nil {
		return nil, err
	}
	hc := hospital(seed, sz.Departments)
	o := &officerState{dir: dir, cfg: prima.Config{Policy: hc.Policy, Vocabulary: hc.Vocab, Site: "hospital"},
		future: flatten(days[sz.HistoryDays:])}
	sys, _, err := prima.Open(o.cfg, prima.SystemOptions{Dir: dir})
	if err != nil {
		return nil, err
	}
	for _, day := range days[:sz.HistoryDays] {
		if err := sys.Durable().Append(day...); err != nil {
			sys.Close()
			return nil, err
		}
		o.history += len(day)
	}
	if err := sys.CheckpointStorage(); err != nil {
		sys.Close()
		return nil, err
	}
	return o, sys.Close()
}

// open is the timed restart: recovery of the history from disk.
func (o *officerState) open() error {
	sys, rs, err := prima.Open(o.cfg, prima.SystemOptions{Dir: o.dir})
	if err != nil {
		return err
	}
	o.sys, o.rs, o.srv = sys, rs, server.New(sys)
	return nil
}

func (o *officerState) close() error {
	if o.sys == nil {
		return nil
	}
	err := o.sys.Close()
	o.sys = nil
	return err
}

// call sends one officer request through the server's handler.
func (o *officerState) call(method, target, body string) (int, []byte) {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	o.srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// reviewRound is the officer's closed-loop operation.
type reviewRound struct {
	coverage, evidence, refine []byte
	lat                        [3]time.Duration
}

var officerCalls = [3]struct{ name, method, target, body string }{
	{"http.coverage", http.MethodGet, "/coverage", ""},
	{"http.evidence", http.MethodGet, "/patterns?evidence=1", ""},
	{"http.refine", http.MethodPost, "/refine", refineBody},
}

func (o *officerState) round(tr *tracer, op int64) (reviewRound, error) {
	var r reviewRound
	t0 := time.Now()
	parent := tr.add(op, "round", -1, t0, t0)
	defer func() { tr.finish(parent, time.Now()) }()
	bodies := [3]*[]byte{&r.coverage, &r.evidence, &r.refine}
	for i, c := range officerCalls {
		s := time.Now()
		code, body := o.call(c.method, c.target, c.body)
		r.lat[i] = time.Since(s)
		tr.add(op, c.name, parent, s, s.Add(r.lat[i]))
		if code != http.StatusOK {
			return r, fmt.Errorf("%s %s: status %d", c.method, c.target, code)
		}
		*bodies[i] = body
	}
	return r, nil
}

// checkRound compares a review round, served while nothing appends,
// against an offline core.Coverage / core.Refinement over a snapshot
// of the recovered log.
func (o *officerState) checkRound(r reviewRound) []string {
	var bad []string
	snap := o.sys.AuditLog().Snapshot()
	ps, v := o.sys.PolicyStore(), o.sys.Vocabulary()
	cov, err := core.Coverage(ps, audit.ToPolicy("AL", snap), v)
	if err != nil {
		return []string{err.Error()}
	}
	ecov, err := core.EntryCoverage(ps, snap, v)
	if err != nil {
		return []string{err.Error()}
	}
	var got server.CoverageResponse
	if err := json.Unmarshal(r.coverage, &got); err != nil {
		return []string{"coverage body: " + err.Error()}
	}
	want := server.CoverageResponse{Coverage: cov.Coverage, RangePolicy: cov.RangeX, RangeAudit: cov.RangeY,
		Overlap: cov.Overlap, EntryCoverage: ecov.Coverage, EntriesTotal: ecov.Total}
	for _, g := range cov.Gaps {
		want.Gaps = append(want.Gaps, g.Rule.Compact())
	}
	if a, b := mustJSON(got), mustJSON(want); a != b {
		bad = append(bad, fmt.Sprintf("coverage %s, offline %s", a, b))
	}

	pats, err := core.Refinement(ps, snap, v, core.Options{})
	if err != nil {
		return append(bad, err.Error())
	}
	var ev struct {
		Evidence []server.EvidenceJSON `json:"evidence"`
	}
	if err := json.Unmarshal(r.evidence, &ev); err != nil {
		return append(bad, "evidence body: "+err.Error())
	}
	var gotP, wantP []string
	for _, e := range ev.Evidence {
		gotP = append(gotP, fmt.Sprintf("%s|%d|%d", e.Rule, e.Support, e.DistinctUsers))
	}
	for _, e := range core.AnnotatePatterns(core.Filter(snap), pats) {
		wantP = append(wantP, fmt.Sprintf("%s|%d|%d", e.Rule.Compact(), e.Support, len(e.UserCounts)))
	}
	sort.Strings(gotP)
	sort.Strings(wantP)
	if strings.Join(gotP, ",") != strings.Join(wantP, ",") {
		bad = append(bad, fmt.Sprintf("patterns %v, offline %v", gotP, wantP))
	}

	var ref server.RefineResponse
	if err := json.Unmarshal(r.refine, &ref); err != nil {
		return append(bad, "refine body: "+err.Error())
	}
	if len(ref.Adopted) != 0 || ref.CoverageBefore != ecov.Coverage || ref.CoverageAfter != ecov.Coverage {
		bad = append(bad, fmt.Sprintf("refine adopted %d, coverage %v -> %v, offline %v",
			len(ref.Adopted), ref.CoverageBefore, ref.CoverageAfter, ecov.Coverage))
	}
	return bad
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// writer appends the following simulated days through Durable.Append
// while the officer reviews, one fixed-size batch per tick.
type writer struct {
	stop    chan struct{}
	done    chan struct{}
	batches int
	entries int
	rates   []float64 // entries per second inside each Durable.Append
	err     error
}

func startWriter(d *audit.Durable, entries []audit.Entry, batch int, every time.Duration) *writer {
	w := &writer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for len(entries) > 0 {
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
			b := entries[:min(batch, len(entries))]
			entries = entries[len(b):]
			s := time.Now()
			if err := d.Append(b...); err != nil {
				w.err = err
				return
			}
			w.rates = append(w.rates, float64(len(b))/time.Since(s).Seconds())
			w.entries += len(b)
			w.batches++
		}
	}()
	return w
}

func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

func runOfficerReview(cfg runConfig) (result, error) {
	sz := cfg.Sizes
	var o *officerState
	setupS, readyS, err := repeatSetup(sz.Setups, sz.OfficerOpens, func() (err error) {
		o, err = buildOfficer(cfg.Seed, sz, filepath.Join(cfg.Work, "officer"))
		return err
	}, func() error { return o.open() }, func() error { return o.close() }, func() error {
		if err := o.close(); err != nil {
			return err
		}
		return os.RemoveAll(o.dir)
	})
	if o != nil {
		defer o.close()
	}
	if err != nil {
		return result{}, err
	}
	var checks []string
	if got := o.sys.AuditLog().Len(); got != o.history {
		checks = append(checks, fmt.Sprintf("recovered %d of %d history entries", got, o.history))
	}
	// The first round runs alone on the recovered log and is checked.
	var failed, attempted int64 = 0, 3
	if first, err := o.round(nil, -1); err != nil {
		failed++
		checks = append(checks, err.Error())
	} else {
		checks = append(checks, o.checkRound(first)...)
	}
	settle()

	tr := newTracer(cfg.Trace)
	var lat []float64
	wr := startWriter(o.sys.Durable(), o.future, sz.WriterBatch, sz.WriterEvery)
	start := time.Now()
	for op := int64(0); time.Since(start) < cfg.Duration; op++ {
		attempted += 3
		r, err := o.round(tr, op)
		if err != nil {
			failed++
			lat = append(lat, inf)
			checks = append(checks, err.Error())
			continue
		}
		lat = append(lat, ms(r.lat[0]+r.lat[1]+r.lat[2]))
	}
	elapsed := time.Since(start)
	wr.halt()
	heapMiB := liveHeapMiB()
	if wr.err != nil {
		return result{}, wr.err
	}
	attempted += int64(wr.batches)
	if got, want := o.sys.AuditLog().Len(), o.history+wr.entries; got != want {
		checks = append(checks, fmt.Sprintf("log holds %d entries, want %d", got, want))
	}
	// The last round, with the writer stopped, is checked too.
	last, err := o.round(nil, -1)
	attempted += 3
	if err != nil {
		failed++
		checks = append(checks, err.Error())
	} else {
		checks = append(checks, o.checkRound(last)...)
	}

	var probe map[string]metric
	if cfg.Trace && len(checks) == 0 {
		if probe, err = probeOfficer(o, sz); err != nil {
			return result{}, err
		}
	}
	res := result{Attempted: attempted, Failed: failed}
	if len(checks) > 0 || failed > 0 {
		for _, c := range checks {
			fmt.Fprintln(os.Stderr, "check failed:", c)
		}
		return res, nil
	}
	e2e := map[string]metric{
		"setup_s":              {setupS, "s"},
		"heap_live_mb":         {heapMiB, "MiB"},
		"ready_s":              {readyS, "s"},
		"op_per_s":             {float64(len(lat)) / elapsed.Seconds(), "1/s"},
		"op_p50_ms":            {quantile(lat, 0.5), "ms"},
		"op_p90_ms":            {quantile(lat, 0.9), "ms"},
		"ingest_entries_per_s": {median(wr.rates), "entries/s"},
	}
	res.Correct = true
	if !cfg.Trace {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics, err = tracedMetrics(cfg, "officer-review", e2e, quantile(lat, 0.99), tr, probe)
	return res, err
}
