package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/server"
)

// tinySizes keeps every workload to a fraction of a second.
func tinySizes() sizes {
	return sizes{
		Departments: 2, Setups: 2, WardOpens: 3, OfficerOpens: 2,
		Patients: 20, PriorDays: 2, ShiftDays: 2, AdminEvery: 10,
		HistoryDays: 4, WriterDays: 3, WriterBatch: 50, WriterEvery: 20 * time.Millisecond,
		SiteDays: 4, ChunkDays: 2,
		ProbeAccesses: 20, ProbeRounds: 2, ProbeScale: 1,
	}
}

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{Seed: 7, Duration: 300 * time.Millisecond, Trace: trace, Work: t.TempDir(), Sizes: tinySizes()}
}

// benchmarkSpec reads the metrics BENCHMARK.json promises, as name to
// unit.
func benchmarkSpec(t *testing.T) (e2e, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return e2e, perLayer
}

// checkMetrics verifies a passing run reports exactly the promised
// metrics, each finite and in its promised unit.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for k, m := range res.Metrics {
		unit, ok := want[k]
		switch {
		case !ok:
			t.Errorf("unpromised metric %s", k)
		case m.Unit != unit:
			t.Errorf("%s in %q, promised %q", k, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", k, m.Value)
		}
	}
	for k := range want {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("missing metric %s", k)
		}
	}
}

func TestWorkloadsPassChecks(t *testing.T) {
	e2e, _ := benchmarkSpec(t)
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := run(tinyConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, e2e)
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	_, perLayer := benchmarkSpec(t)
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, true)
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			spans := filepath.Join(filepath.Dir(cfg.Work), name+"-7.spans.jsonl")
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Fatalf("span dump %s: %v", spans, err)
			}
		})
	}
}

// openTinyWard builds and opens a tiny ward served over loopback.
func openTinyWard(t *testing.T) (*wardState, *wardClient) {
	t.Helper()
	w, err := buildWard(7, tinySizes(), filepath.Join(t.TempDir(), "ward"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.close() })
	ts := httptest.NewServer(server.New(w.sys))
	t.Cleanup(ts.Close)
	cl := newWardClient(ts.URL)
	t.Cleanup(cl.client.CloseIdleConnections)
	return w, cl
}

func firstAccess(t *testing.T, w *wardState, denied bool) *access {
	t.Helper()
	for i := range w.accesses {
		if w.accesses[i].denied == denied {
			return &w.accesses[i]
		}
	}
	t.Fatalf("no access with denied=%v", denied)
	return nil
}

func TestWardOutcomeCheckCatchesWrongDecision(t *testing.T) {
	w, cl := openTinyWard(t)
	a := firstAccess(t, w, true)
	if _, err := cl.doAccess(a, true, nil, 0); err != nil {
		t.Fatalf("untouched system: %v", err)
	}
	// A rule that permits the access turns the expected 403 into a 200.
	if _, err := w.sys.AddRule("data=" + a.data + " & purpose=" + a.purpose + " & authorized=" + a.role); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.doAccess(a, true, nil, 0); err == nil {
		t.Fatal("outcome check accepted a 200 for an access labelled denied")
	}
}

func TestWardRowCheckCatchesWrongRow(t *testing.T) {
	w, cl := openTinyWard(t)
	a := firstAccess(t, w, false)
	if _, err := w.sys.DB().Exec("UPDATE " + chartTable + " SET " + a.column + " = 'tampered' WHERE patient = '" + a.patient + "'"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.doAccess(a, true, nil, 0); err == nil {
		t.Fatal("row check accepted a tampered chart")
	}
}

func TestWardAuditCheckCatchesExtraEntry(t *testing.T) {
	w, cl := openTinyWard(t)
	seq0 := w.sys.AuditLog().Seq()
	calls, err := cl.doAccess(firstAccess(t, w, true), false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := w.checkAudit(seq0, int64(calls)); len(bad) != 0 {
		t.Fatalf("untouched log: %v", bad)
	}
	e := audit.Entry{Time: time.Now(), Op: audit.Allow, User: "u", Data: "address", Purpose: "treatment",
		Authorized: "nurse", Status: audit.Regular}
	if err := w.sys.AuditLog().Append(e); err != nil {
		t.Fatal(err)
	}
	if bad := w.checkAudit(seq0, int64(calls)); len(bad) == 0 {
		t.Fatal("audit check accepted an entry no call made")
	}
}

func TestWardRecoveryCheckCatchesLostWAL(t *testing.T) {
	w, cl := openTinyWard(t)
	if _, err := cl.doAccess(firstAccess(t, w, false), false, nil, 0); err != nil {
		t.Fatal(err)
	}
	want := w.sys.AuditLog().Len()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(w.dir, "audit", "wal")); err != nil {
		t.Fatal(err)
	}
	if err := w.open(); err != nil {
		t.Fatal(err)
	}
	if bad := w.checkRecovered(want); len(bad) == 0 {
		t.Fatal("recovery check accepted a reopen that lost the WAL")
	}
}

func TestOfficerCheckCatchesCorruptedResponses(t *testing.T) {
	o, err := buildOfficer(7, tinySizes(), filepath.Join(t.TempDir(), "officer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.open(); err != nil {
		t.Fatal(err)
	}
	defer o.close()
	r, err := o.round(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := o.checkRound(r); len(bad) != 0 {
		t.Fatalf("untouched round: %v", bad)
	}
	corrupt := map[string]func(reviewRound) reviewRound{
		"coverage": func(r reviewRound) reviewRound {
			var c server.CoverageResponse
			json.Unmarshal(r.coverage, &c)
			c.EntriesTotal++
			r.coverage, _ = json.Marshal(c)
			return r
		},
		"evidence": func(r reviewRound) reviewRound {
			r.evidence = []byte(`{"evidence":[{"rule":"data=address & purpose=treatment & authorized=nurse","support":1}]}`)
			return r
		},
		"refine": func(r reviewRound) reviewRound {
			var ref server.RefineResponse
			json.Unmarshal(r.refine, &ref)
			ref.CoverageAfter += 0.5
			r.refine, _ = json.Marshal(ref)
			return r
		},
	}
	for name, f := range corrupt {
		if bad := o.checkRound(f(r)); len(bad) == 0 {
			t.Errorf("officer check accepted a corrupted %s response", name)
		}
	}
}

func TestFederationCheckCatchesExtraEntry(t *testing.T) {
	sz := tinySizes()
	f, err := buildFed(7, sz)
	if err != nil {
		t.Fatal(err)
	}
	p, err := startPass(f)
	if err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	for d := 0; d < sz.SiteDays; d += sz.ChunkDays {
		if _, _, _, err := p.chunk(f, d, d+sz.ChunkDays, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := digestResult(p.cons.Consolidate()); err != nil || d != f.oracle {
		t.Fatalf("untouched federation differs from the oracle (%v)", err)
	}
	extra := f.days[0][0][0]
	extra.User = "intruder"
	if err := p.sources[0].Append(extra); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.streamers[0].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if d, _ := digestResult(p.cons.Consolidate()); d == f.oracle {
		t.Fatal("federation check accepted a view with an entry the sites never logged")
	}
}

func TestQuantileAndWindowRate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.9); q != 5 {
		t.Errorf("p90 = %v", q)
	}
	at := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 1200 * time.Millisecond, 2500 * time.Millisecond}
	// Windows of 1 s over 2 s: counts 2 and 1 (the event at 2.5 s is
	// outside a whole window); the median of {2, 1} by nearest rank is 1.
	if r := windowRate(at, nil, 2*time.Second, time.Second); r != 1 {
		t.Errorf("windowRate = %v", r)
	}
}
