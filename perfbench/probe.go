package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hdb"
	"repro/internal/netfed"
	"repro/internal/policy"
	"repro/internal/server"
)

// The traced run replays work one layer down at a time, timing the
// benchmark's own calls into each layer's public functions. Self time
// is the per-access difference between two stacked calls on the same
// input. The workload being run is probed on its own system once the
// measured phase is over; the other two workloads are probed on twin
// systems built from the same seed at a reduced size, so every traced
// run reports every per-layer metric.

// timed runs f and returns its duration.
func timed(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

// medianOf times f n times and returns the median in milliseconds.
func medianOf(n int, f func() error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := timed(f)
		if err != nil {
			return 0, err
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// probeWard replays a sample of ward accesses at each layer: the HTTP
// round trip, server.ServeHTTP, hdb enforcement, the bare minidb SELECT
// and the audit append.
func probeWard(w *wardState, sz sizes) (map[string]metric, error) {
	sys := w.sys
	sample := w.accesses[:min(sz.ProbeAccesses, len(w.accesses))]
	n := len(sample)
	lg := sys.AuditLog()
	seq0, syncs0 := lg.Seq(), sys.Durable().WALSyncs()
	srv := server.New(sys)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	cl := newWardClient("http://" + ln.Addr().String())
	enf, db := sys.Enforcer(), sys.DB()
	serveOne := func(a *access) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(a.query)))
		if rec.Code == http.StatusForbidden {
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/breakglass", bytes.NewReader(a.breakglass)))
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler replay: status %d", rec.Code)
		}
		return nil
	}
	enforceOne := func(a *access) error {
		p := hdb.Principal{User: a.user, Role: a.role}
		_, _, err := enf.Query(p, a.purpose, a.sql)
		if errors.Is(err, hdb.ErrDenied) {
			_, _, err = enf.BreakGlass(p, a.purpose, "clinical necessity", a.sql)
		}
		return err
	}
	var rows int
	execOne := func(a *access) error {
		res, err := db.Exec(a.sql)
		if err == nil {
			rows += len(res.Rows)
		}
		return err
	}
	// appendOne appends what enforcement audits for the access: the
	// regular entry, or the denial and then the exception entry.
	appendOne := func(a *access) error {
		e := audit.Entry{Time: time.Now(), Op: audit.Allow, User: a.user, Data: a.data,
			Purpose: a.purpose, Authorized: a.role, Status: audit.Regular}
		if a.denied {
			deny := e
			deny.Op = audit.Deny
			if err := lg.Append(deny); err != nil {
				return err
			}
			e.Status, e.Reason = audit.Exception, "clinical necessity"
		}
		return lg.Append(e)
	}

	// Each access is replayed at every layer back to back, so the
	// per-access differences compare calls made under the same
	// conditions.
	rt, handler, enforce := make([]float64, n), make([]float64, n), make([]float64, n)
	exec, appendT := make([]float64, n), make([]float64, n)
	var calls, denied int
	var enforced uint64
	for i := range sample {
		a := &sample[i]
		if a.denied {
			denied++
		}
		t := time.Now()
		c, err := cl.doAccess(a, true, nil, 0)
		rt[i] = us(time.Since(t))
		calls += c
		if err != nil {
			hs.Close()
			return nil, err
		}
		d, err := timed(func() error { return serveOne(a) })
		if err == nil {
			handler[i] = us(d)
			seq := lg.Seq()
			d, err = timed(func() error { return enforceOne(a) })
			enforce[i] = us(d)
			enforced += lg.Seq() - seq
		}
		if err == nil {
			d, err = timed(func() error { return execOne(a) })
			exec[i] = us(d)
		}
		if err == nil {
			d, err = timed(func() error { return appendOne(a) })
			appendT[i] = us(d)
		}
		if err != nil {
			hs.Close()
			return nil, err
		}
	}
	cl.client.CloseIdleConnections()
	if err := hs.Close(); err != nil {
		return nil, err
	}
	if err := <-served; err != nil && err != http.ErrServerClosed {
		return nil, err
	}

	transport := make([]float64, n)
	codec := make([]float64, n)
	decide := make([]float64, n)
	for i := range sample {
		transport[i] = rt[i] - handler[i]
		codec[i] = handler[i] - enforce[i]
		decide[i] = enforce[i] - exec[i] - appendT[i]
	}

	// Admin writes, each followed by the first access after it.
	var consentT, ruleT, churn []float64
	for k := 0; k < 8*sz.ProbeRounds; k++ {
		d, err := timed(func() error { return w.adminWrite(int64(k)) })
		if err != nil {
			return nil, err
		}
		if k%4 < 2 {
			consentT = append(consentT, us(d))
		} else {
			ruleT = append(ruleT, us(d))
		}
		d, err = timed(func() error { return enforceOne(&sample[k%n]) })
		if err != nil {
			return nil, err
		}
		churn = append(churn, us(d))
	}

	syncT, err := timed(sys.SyncStorage)
	if err != nil {
		return nil, err
	}
	appended := int(lg.Seq() - seq0)
	walBytes, err := dirBytes(filepath.Join(w.dir, "audit", "wal"))
	if err != nil {
		return nil, err
	}
	sinceCkpt := lg.Len() - w.prior
	m := map[string]metric{
		"server.roundtrip_p50_us":       {median(rt), "us"},
		"server.handler_p50_us":         {median(handler), "us"},
		"server.transport_p50_us":       {median(transport), "us"},
		"server.codec_p50_us":           {median(codec), "us"},
		"server.calls_per_access":       {float64(calls) / float64(n), "count"},
		"hdb.enforce_p50_us":            {median(enforce), "us"},
		"hdb.decide_self_p50_us":        {median(decide), "us"},
		"hdb.denied_frac":               {float64(denied) / float64(n), "ratio"},
		"hdb.after_churn_p50_us":        {median(churn), "us"},
		"minidb.exec_p50_us":            {median(exec), "us"},
		"minidb.rows_per_access":        {float64(rows) / float64(n), "count"},
		"consent.set_p50_us":            {median(consentT), "us"},
		"policy.rule_mutation_p50_us":   {median(ruleT), "us"},
		"audit.append_p50_us":           {median(appendT), "us"},
		"audit.entries_per_access":      {float64(enforced) / float64(n), "count"},
		"storage.fsyncs_per_1k_entries": {1000 * float64(sys.Durable().WALSyncs()-syncs0) / float64(appended), "count"},
		"storage.wal_bytes_per_entry":   {float64(walBytes) / float64(sinceCkpt), "B"},
		"storage.final_sync_ms":         {ms(syncT), "ms"},
	}
	return m, nil
}

// probeOfficer times the officer's layers on a quiescent system: the
// three review requests, the audit reads and core analyses beneath
// them, one writer batch appended, a checkpoint, and a reopen.
func probeOfficer(o *officerState, sz sizes) (map[string]metric, error) {
	m := map[string]metric{}
	k := sz.ProbeRounds
	for _, c := range officerCalls {
		v, err := medianOf(k, func() error {
			if code, _ := o.call(c.method, c.target, c.body); code != http.StatusOK {
				return fmt.Errorf("%s: status %d", c.target, code)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		m["officer."+strings.TrimPrefix(c.name, "http.")+"_p50_ms"] = metric{v, "ms"}
	}

	lg, ps, v := o.sys.AuditLog(), o.sys.PolicyStore(), o.sys.Vocabulary()
	groups := lg.Groups()
	patterns, err := core.PatternsFromGroups(groups, core.Options{})
	if err != nil {
		return nil, err
	}
	var snap []audit.Entry
	var al *policy.Policy
	steps := []struct {
		name string
		f    func() error
	}{
		{"audit.snapshot_ms", func() error { snap = lg.Snapshot(); return nil }},
		{"audit.topolicy_ms", func() error { al = audit.ToPolicy("AL", snap); return nil }},
		{"core.coverage_ms", func() error { _, err := core.Coverage(ps, al, v); return err }},
		{"audit.groups_ms", func() error { groups = lg.Groups(); return nil }},
		{"core.group_coverage_ms", func() error { _, err := core.GroupCoverage(ps, groups, v); return err }},
		{"core.annotate_ms", func() error { core.AnnotatePatterns(core.Filter(snap), patterns); return nil }},
		{"core.refine_round_ms", func() error {
			_, err := o.sys.RunRefinement(core.ReviewerFunc(func(core.Pattern) core.Decision { return core.Investigate }))
			return err
		}},
	}
	for _, s := range steps {
		v, err := medianOf(k, s.f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		m[s.name] = metric{v, "ms"}
	}
	batch := o.future[len(o.future)-min(sz.WriterBatch, len(o.future)):]
	var batches []float64
	for i := 0; i < k; i++ {
		d, err := timed(func() error { return o.sys.Durable().Append(batch...) })
		if err != nil {
			return nil, err
		}
		batches = append(batches, ms(d))
	}
	m["audit.ingest_batch_ms"] = metric{median(batches), "ms"}

	ckpt, err := timed(o.sys.CheckpointStorage)
	if err != nil {
		return nil, err
	}
	n := lg.Len()
	ckptBytes, err := dirBytes(filepath.Join(o.dir, "audit"))
	if err != nil {
		return nil, err
	}
	m["storage.checkpoint_s"] = metric{ckpt.Seconds(), "s"}
	m["storage.checkpoint_bytes_per_entry"] = metric{float64(ckptBytes) / float64(n), "B"}

	if err := o.close(); err != nil {
		return nil, err
	}
	if err := o.open(); err != nil {
		return nil, err
	}
	if got := o.sys.AuditLog().Len(); got != n {
		return nil, fmt.Errorf("reopen after checkpoint recovered %d of %d entries", got, n)
	}
	if _, err := o.sys.Durable().SnapshotRange(time.Time{}, time.Now()); err != nil {
		return nil, err
	}
	rs := o.rs
	m["audit.recovery_entries_per_s"] = metric{float64(rs.CheckpointEntries+rs.WALEntries) / rs.Elapsed.Seconds(), "entries/s"}
	m["audit.index_groups"] = metric{float64(rs.IndexGroups), "count"}
	m["storage.pool_hit_rate"] = metric{o.sys.Durable().PoolStats().HitRate(), "ratio"}
	return m, nil
}

// probeFed times the federation's layers on the last pass: the wire
// codec over one site's corpus, the streamers' transport counters, the
// cross-site group merge, pattern mining, and whole epochs.
func probeFed(f *fedState, p *fedPass, sz sizes) (map[string]metric, error) {
	m := map[string]metric{}
	const batch = 4096
	entries := flatten(f.days[0])
	enc := netfed.NewEncoder()
	var payloads [][]byte
	t := time.Now()
	for i := 0; i < len(entries); i += batch {
		payloads = append(payloads, enc.AppendBatch(nil, uint64(i+1), entries[i:min(i+batch, len(entries))]))
	}
	encT := time.Since(t)
	dec := netfed.NewDecoder()
	t = time.Now()
	decoded := 0
	for _, pl := range payloads {
		_, es, err := dec.DecodeBatch(pl)
		if err != nil {
			return nil, err
		}
		decoded += len(es)
	}
	decT := time.Since(t)
	if decoded != len(entries) {
		return nil, fmt.Errorf("codec round trip decoded %d of %d entries", decoded, len(entries))
	}
	m["netfed.encode_ns_per_entry"] = metric{float64(encT.Nanoseconds()) / float64(len(entries)), "ns"}
	m["netfed.decode_ns_per_entry"] = metric{float64(decT.Nanoseconds()) / float64(len(entries)), "ns"}

	var bytes, sent, resent uint64
	var lag []float64
	for _, s := range p.streamers {
		st := s.Stats()
		bytes += st.Bytes
		sent += st.Batches
		resent += st.Retransmits
		lag = append(lag, ms(st.LagP50))
	}
	m["netfed.wire_bytes_per_entry"] = metric{float64(bytes) / float64(f.total), "B"}
	m["netfed.send_amplification"] = metric{float64(sent) / float64(sent-resent), "ratio"}
	m["netfed.ack_lag_p50_ms"] = metric{median(lag), "ms"}

	logs := []*audit.Log{p.cons.SiteLog(siteNames[0]), p.cons.SiteLog(siteNames[1])}
	var groups []audit.Group
	k := sz.ProbeRounds
	v, err := medianOf(k, func() error { groups = audit.MergeGroups(logs...); return nil })
	if err != nil {
		return nil, err
	}
	m["audit.merge_groups_ms"] = metric{v, "ms"}
	if v, err = medianOf(k, func() error { _, err := core.PatternsFromGroups(groups, core.Options{}); return err }); err != nil {
		return nil, err
	}
	m["core.patterns_from_groups_ms"] = metric{v, "ms"}
	if v, err = medianOf(k, func() error { _, err := p.cons.RunEpoch(); return err }); err != nil {
		return nil, err
	}
	m["netfed.epoch_p50_ms"] = metric{v, "ms"}
	return m, nil
}

// probeTwins probes the workloads other than skip on reduced-size twin
// systems built from the same seed.
func probeTwins(cfg runConfig, skip string) (map[string]metric, error) {
	sz := cfg.Sizes.scaled(cfg.Sizes.ProbeScale)
	out := map[string]metric{}
	merge := func(m map[string]metric) {
		for k, v := range m {
			out[k] = v
		}
	}
	if skip != "ward-shift" {
		w, err := buildWard(cfg.Seed, sz, filepath.Join(cfg.Work, "twin-ward"))
		if err != nil {
			return nil, err
		}
		if err := w.open(); err != nil {
			return nil, err
		}
		m, err := probeWard(w, sz)
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		merge(m)
	}
	if skip != "officer-review" {
		o, err := buildOfficer(cfg.Seed, sz, filepath.Join(cfg.Work, "twin-officer"))
		if err != nil {
			return nil, err
		}
		if err := o.open(); err != nil {
			return nil, err
		}
		m, err := probeOfficer(o, sz)
		if cerr := o.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		merge(m)
	}
	if skip != "site-federation" {
		f, err := buildFed(cfg.Seed, sz)
		if err != nil {
			return nil, err
		}
		p, err := startPass(f)
		if err != nil {
			return nil, err
		}
		for d := 0; d < sz.SiteDays; d += sz.ChunkDays {
			if _, _, _, err := p.chunk(f, d, min(d+sz.ChunkDays, sz.SiteDays), nil, 0); err != nil {
				p.stop()
				return nil, err
			}
		}
		m, err := probeFed(f, p, sz)
		if serr := p.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		merge(m)
	}
	return out, nil
}

// tracedMetrics assembles a traced run's result: the run's own
// end-to-end figures under "traced.", its p99, the span count, and the
// per-layer probes of all three workloads. The spans are written next
// to the run's scratch directory.
func tracedMetrics(cfg runConfig, workload string, e2e map[string]metric, p99 float64,
	tr *tracer, own map[string]metric) (map[string]metric, error) {
	m, err := probeTwins(cfg, workload)
	if err != nil {
		return nil, err
	}
	for k, v := range own {
		m[k] = v
	}
	for k, v := range e2e {
		m["traced."+k] = v
	}
	m["traced.op_p99_ms"] = metric{p99, "ms"}
	path := filepath.Join(filepath.Dir(cfg.Work), fmt.Sprintf("%s-%d.spans.jsonl", workload, cfg.Seed))
	return m, tr.Dump(path)
}
