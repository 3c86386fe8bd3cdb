package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	prima "repro"
	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/minidb"
	"repro/internal/server"
	"repro/internal/workflow"
)

const chartTable = "charts"

// wardClients is the number of closed-loop clinician clients, one per
// core of the two-core host the benchmark was sized on.
const wardClients = 2

// access is one simulated clinician access, prepared as the HTTP
// bodies a ward client sends.
type access struct {
	user, role, purpose string
	data                string // ground data category
	column, patient     string
	sql                 string
	denied              bool // simulator label: exception-based access
	query, breakglass   []byte
}

// wardState is the clinician-path system: a durable prima.System with
// a file-backed chart table, served by server.New on loopback.
type wardState struct {
	dir      string
	cfg      prima.Config
	columns  []string // lower-case chart columns, one per ground data category
	mapping  prima.TableMapping
	accesses []access
	prior    int // audit entries written before the shift
	sys      *prima.System
	// admin writes touch only what no access reads: reserved patients
	// and a ground rule outside every access's triple.
	reservedPatients []string
	spareRule        string
}

func patientID(i int) string { return fmt.Sprintf("p%05d", i) }

func cellValue(col, patient string) string { return col + "-" + patient }

// buildWard generates the ward's inputs and writes its durable state:
// the chart table and the audit history of the days before the shift.
// The system is closed on return; openWard reopens it.
func buildWard(seed int64, sz sizes, dir string) (*wardState, error) {
	days, err := simulateDays(seed, sz.Departments, sz.PriorDays+sz.ShiftDays)
	if err != nil {
		return nil, err
	}
	hc := hospital(seed, sz.Departments)
	w := &wardState{dir: dir, cfg: prima.Config{Policy: hc.Policy, Vocabulary: hc.Vocab, Site: "ward"}}
	cats := map[string]string{}
	for _, leaf := range hc.Vocab.Hierarchy("data").Leaves() {
		col := strings.ToLower(leaf)
		w.columns = append(w.columns, col)
		cats[col] = leaf
	}
	w.mapping = prima.TableMapping{Table: chartTable, PatientCol: "patient", Categories: cats}

	rng := rand.New(rand.NewSource(seed))
	used := map[[3]string]bool{}
	for _, e := range flatten(days[sz.PriorDays:]) {
		p := patientID(rng.Intn(sz.Patients))
		col := strings.ToLower(e.Data)
		a := access{user: e.User, role: e.Authorized, purpose: e.Purpose, data: e.Data, column: col, patient: p,
			sql:    fmt.Sprintf("SELECT patient, %s FROM %s WHERE patient = '%s'", col, chartTable, p),
			denied: e.Status == audit.Exception}
		req := server.QueryRequest{User: a.user, Role: a.role, Purpose: a.purpose, SQL: a.sql}
		if a.query, err = json.Marshal(req); err != nil {
			return nil, err
		}
		req.Reason = "clinical necessity"
		if a.breakglass, err = json.Marshal(req); err != nil {
			return nil, err
		}
		w.accesses = append(w.accesses, a)
		used[[3]string{e.Data, e.Purpose, e.Authorized}] = true
	}
	for i := 0; i < 4; i++ {
		w.reservedPatients = append(w.reservedPatients, fmt.Sprintf("reserved%d", i))
	}
	w.spareRule = spareRule(hc, used)
	if w.spareRule == "" {
		return nil, fmt.Errorf("no ground rule is free of simulated accesses")
	}

	sys, _, err := prima.Open(w.cfg, prima.SystemOptions{Dir: dir})
	if err != nil {
		return nil, err
	}
	cols := []minidb.Column{{Name: "patient", Type: minidb.TypeText}}
	for _, c := range w.columns {
		cols = append(cols, minidb.Column{Name: c, Type: minidb.TypeText})
	}
	if _, err := sys.DB().CreateTableStorage(chartTable, cols, "file"); err != nil {
		sys.Close()
		return nil, err
	}
	row := make([]minidb.Value, len(cols))
	for i := 0; i < sz.Patients; i++ {
		p := patientID(i)
		row[0] = minidb.Text(p)
		for j, c := range w.columns {
			row[j+1] = minidb.Text(cellValue(c, p))
		}
		if err := sys.DB().Insert(chartTable, row...); err != nil {
			sys.Close()
			return nil, err
		}
	}
	hist := flatten(days[:sz.PriorDays])
	if err := sys.Durable().Append(hist...); err != nil {
		sys.Close()
		return nil, err
	}
	w.prior = len(hist)
	if err := sys.CheckpointStorage(); err != nil {
		sys.Close()
		return nil, err
	}
	return w, sys.Close()
}

// spareRule returns a ground rule (data, purpose, role leaves) that no
// simulated access matches, so adding and removing it never changes a
// decision the clients observe.
func spareRule(hc workflow.Config, used map[[3]string]bool) string {
	v := hc.Vocab
	for _, r := range v.Hierarchy("authorized").Leaves() {
		for _, p := range v.Hierarchy("purpose").Leaves() {
			for _, d := range v.Hierarchy("data").Leaves() {
				if !used[[3]string{d, p, r}] {
					return fmt.Sprintf("data=%s & purpose=%s & authorized=%s", d, p, r)
				}
			}
		}
	}
	return ""
}

// openWard reopens the ward's durable state and places the chart table
// under enforcement: the restart a ward waits for.
func (w *wardState) open() error {
	sys, _, err := prima.Open(w.cfg, prima.SystemOptions{Dir: w.dir})
	if err != nil {
		return err
	}
	if err := sys.RegisterTable(w.mapping); err != nil {
		sys.Close()
		return err
	}
	w.sys = sys
	return nil
}

func (w *wardState) close() error {
	if w.sys == nil {
		return nil
	}
	err := w.sys.Close()
	w.sys = nil
	return err
}

// checkAudit verifies the Fig. 5 contract over the shift: the audit
// log gained exactly one entry per enforced call.
func (w *wardState) checkAudit(seq0 uint64, calls int64) []string {
	if got := w.sys.AuditLog().Seq() - seq0; got != uint64(calls) {
		return []string{fmt.Sprintf("audit gained %d entries for %d enforced calls", got, calls)}
	}
	return nil
}

// checkRecovered verifies that a reopen recovered want audit entries.
func (w *wardState) checkRecovered(want int) []string {
	if got := w.sys.AuditLog().Len(); got != want {
		return []string{fmt.Sprintf("reopen recovered %d of %d audit entries", got, want)}
	}
	return nil
}

// wardCounts accumulates one client's outcomes.
type wardCounts struct {
	accesses, calls, admin int64
	failed                 int64
	mismatch               []string
	lat                    []float64       // ms per access; +Inf for a failed access
	done                   []time.Duration // completion time of each access since the start
	entries                []float64       // enforced calls (audit entries) of each access
}

// fail counts a failed operation and keeps the first few reasons.
func (c *wardCounts) fail(err error) {
	c.failed++
	if len(c.mismatch) < 5 {
		c.mismatch = append(c.mismatch, err.Error())
	}
}

// wardClient is one closed-loop clinician client with its own
// keep-alive connection.
type wardClient struct {
	base   string
	client *http.Client
}

func newWardClient(base string) *wardClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &wardClient{base: base, client: &http.Client{Transport: tr}}
}

func (c *wardClient) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// verifyRow checks a served chart row against the table's contents.
func verifyRow(body []byte, a *access) error {
	var r server.QueryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if len(r.Rows) != 1 || len(r.Rows[0]) != 2 || r.Rows[0][0] != a.patient || r.Rows[0][1] != cellValue(a.column, a.patient) {
		return fmt.Errorf("unexpected rows %v", r.Rows)
	}
	return nil
}

// doAccess sends one access: the query, and the break-glass retry when
// it is refused. It returns an error for any outcome other than the
// simulator's label.
func (c *wardClient) doAccess(a *access, check bool, tr *tracer, op int64) (calls int, err error) {
	t0 := time.Now()
	parent := tr.add(op, "access", -1, t0, t0)
	defer func() { tr.finish(parent, time.Now()) }()
	code, body, err := c.post("/query", a.query)
	t1 := time.Now()
	tr.add(op, "http.query", parent, t0, t1)
	calls = 1
	switch {
	case err != nil:
		return calls, err
	case code == http.StatusOK && !a.denied:
		if check {
			err = verifyRow(body, a)
		}
	case code == http.StatusForbidden && a.denied:
		code, body, err = c.post("/breakglass", a.breakglass)
		tr.add(op, "http.breakglass", parent, t1, time.Now())
		calls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("break-glass refused: %d", code)
		}
		if err == nil && check {
			err = verifyRow(body, a)
		}
	default:
		err = fmt.Errorf("status %d for an access labelled denied=%v", code, a.denied)
	}
	return calls, err
}

// adminWrite performs the n-th admin write: a consent opt-out/opt-in on
// a reserved patient, or an add and then remove of the spare rule.
func (w *wardState) adminWrite(n int64) error {
	now := time.Now()
	p := w.reservedPatients[int(n)%len(w.reservedPatients)]
	switch n % 4 {
	case 0:
		return w.sys.SetConsent(p, "psychiatry", "treatment", consent.OptOut, now)
	case 1:
		return w.sys.SetConsent(p, "psychiatry", "treatment", consent.OptIn, now)
	case 2:
		_, err := w.sys.AddRule(w.spareRule)
		return err
	default:
		ok, err := w.sys.RemoveRule(w.spareRule)
		if err == nil && !ok {
			err = fmt.Errorf("spare rule was not present")
		}
		return err
	}
}

// shift runs the clients against the served system until the deadline.
func (w *wardState) shift(sz sizes, d time.Duration, tr *tracer) ([]*wardCounts, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	hs := &http.Server{Handler: server.New(w.sys)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	counts := make([]*wardCounts, wardClients)
	forks := make([]*tracer, wardClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < wardClients; c++ {
		counts[c] = &wardCounts{}
		forks[c] = tr.fork()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newWardClient(base)
			defer cl.client.CloseIdleConnections()
			ct := counts[c]
			for i := c; time.Now().Before(deadline); i += wardClients {
				if c == 0 && ct.accesses > 0 && ct.accesses%int64(sz.AdminEvery) == 0 {
					if err := w.adminWrite(ct.admin); err != nil {
						ct.fail(fmt.Errorf("admin write: %w", err))
					}
					ct.admin++
				}
				a := &w.accesses[i%len(w.accesses)]
				t0 := time.Now()
				calls, err := cl.doAccess(a, i%64 == 0, forks[c], int64(i))
				el := time.Since(t0)
				ct.accesses++
				ct.calls += int64(calls)
				if err != nil {
					ct.fail(err)
					ct.lat = append(ct.lat, inf)
					continue
				}
				ct.lat = append(ct.lat, ms(el))
				ct.done = append(ct.done, time.Since(start))
				ct.entries = append(ct.entries, float64(calls))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, f := range forks {
		tr.join(f)
	}
	if err := hs.Close(); err != nil {
		return nil, 0, err
	}
	if err := <-served; err != nil && err != http.ErrServerClosed {
		return nil, 0, err
	}
	return counts, elapsed, nil
}

func runWardShift(cfg runConfig) (result, error) {
	sz := cfg.Sizes
	var w *wardState
	setupS, readyS, err := repeatSetup(sz.Setups, sz.WardOpens, func() (err error) {
		w, err = buildWard(cfg.Seed, sz, filepath.Join(cfg.Work, "ward"))
		return err
	}, func() error { return w.open() }, func() error { return w.close() }, func() error {
		if err := w.close(); err != nil {
			return err
		}
		return os.RemoveAll(w.dir)
	})
	if w != nil {
		defer w.close()
	}
	if err != nil {
		return result{}, err
	}
	settle()

	tr := newTracer(cfg.Trace)
	seq0 := w.sys.AuditLog().Seq()
	counts, elapsed, err := w.shift(sz, cfg.Duration, tr)
	if err != nil {
		return result{}, err
	}
	heapMiB := liveHeapMiB()
	var tot wardCounts
	for _, c := range counts {
		tot.accesses += c.accesses
		tot.calls += c.calls
		tot.admin += c.admin
		tot.failed += c.failed
		tot.mismatch = append(tot.mismatch, c.mismatch...)
		tot.lat = append(tot.lat, c.lat...)
		tot.done = append(tot.done, c.done...)
		tot.entries = append(tot.entries, c.entries...)
	}
	res := result{Attempted: tot.accesses + tot.admin, Failed: tot.failed}
	checks := tot.mismatch

	checks = append(checks, w.checkAudit(seq0, tot.calls)...)
	var probe map[string]metric
	if cfg.Trace && len(checks) == 0 {
		if probe, err = probeWard(w, sz); err != nil {
			return result{}, err
		}
	}
	want := w.sys.AuditLog().Len()
	if err := w.close(); err != nil {
		return result{}, err
	}
	if err := w.open(); err != nil {
		return result{}, err
	}
	checks = append(checks, w.checkRecovered(want)...)
	if len(checks) > 0 || tot.failed > 0 {
		for _, c := range checks {
			fmt.Fprintln(os.Stderr, "check failed:", c)
		}
		return res, nil
	}

	e2e := map[string]metric{
		"setup_s":              {setupS, "s"},
		"heap_live_mb":         {heapMiB, "MiB"},
		"ready_s":              {readyS, "s"},
		"op_per_s":             {windowRate(tot.done, nil, elapsed, rateWindow), "1/s"},
		"op_p50_ms":            {quantile(tot.lat, 0.5), "ms"},
		"op_p90_ms":            {quantile(tot.lat, 0.9), "ms"},
		"ingest_entries_per_s": {windowRate(tot.done, tot.entries, elapsed, rateWindow), "entries/s"},
	}
	res.Correct = true
	if !cfg.Trace {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics, err = tracedMetrics(cfg, "ward-shift", e2e, quantile(tot.lat, 0.99), tr, probe)
	return res, err
}
