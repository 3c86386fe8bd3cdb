package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/netfed"
	"repro/internal/policy"
	"repro/internal/vocab"
)

var siteNames = [2]string{"site-a", "site-b"}

// viewsPerPass is how many times each pass times and checks the
// consolidated view.
const viewsPerPass = 3

// fedState holds the two site corpora (two seeds) and the in-process
// federation oracle over them.
type fedState struct {
	days   [2][][]audit.Entry
	total  int
	ps     *policy.Policy // consolidator's initial store; cloned per pass
	vocab  *vocab.Vocabulary
	oracle string // digest of audit.NewFederation(...).Consolidate()
}

func buildFed(seed int64, sz sizes) (*fedState, error) {
	f := &fedState{}
	var logs [2]*audit.Log
	for i := range siteNames {
		days, err := simulateDays(seed+int64(i), sz.Departments, sz.SiteDays)
		if err != nil {
			return nil, err
		}
		f.days[i] = days
		logs[i] = audit.NewLog(siteNames[i])
		for _, d := range days {
			if err := logs[i].Append(d...); err != nil {
				return nil, err
			}
			f.total += len(d)
		}
	}
	hc := hospital(seed, sz.Departments)
	f.ps, f.vocab = hc.Policy, hc.Vocab
	var err error
	f.oracle, err = digestResult(audit.NewFederation(logs[0], logs[1]).Consolidate())
	return f, err
}

// digestResult hashes a consolidation byte for byte: merged entries
// in their JSON line form, the duplicate count, then both sides of each
// conflict.
func digestResult(r audit.Result) (string, error) {
	h := sha256.New()
	var buf []byte
	for i := range r.Entries {
		var err error
		if buf, err = audit.AppendSinkJSON(buf[:0], &r.Entries[i]); err != nil {
			return "", err
		}
		h.Write(buf)
	}
	fmt.Fprintf(h, "duplicates=%d\n", r.Duplicates)
	for i := range r.Conflicts {
		for _, e := range []*audit.Entry{&r.Conflicts[i].A, &r.Conflicts[i].B} {
			var err error
			if buf, err = audit.AppendSinkJSON(buf[:0], e); err != nil {
				return "", err
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fedPass is one full federation of both corpora: a fresh consolidator
// and two streamers, fed chunk by chunk.
type fedPass struct {
	cons      *netfed.Consolidator
	streamers [2]*netfed.Streamer
	sources   [2]*audit.Log
	cancel    context.CancelFunc
	runErrs   chan error
	served    chan error
}

func startPass(f *fedState) (*fedPass, error) {
	cons, err := netfed.NewConsolidator(netfed.ConsolidatorOptions{
		Refine: &netfed.RefineConfig{PS: f.ps.Clone(), Vocab: f.vocab},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &fedPass{cons: cons, runErrs: make(chan error, 2), served: make(chan error, 1)}
	go func() { p.served <- cons.Serve(ln) }()
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	for i, name := range siteNames {
		p.sources[i] = audit.NewLog(name)
		s, err := netfed.NewStreamer(p.sources[i], name, netfed.StreamerOptions{
			Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		})
		if err != nil {
			p.stop()
			return nil, err
		}
		p.streamers[i] = s
		go func() { p.runErrs <- s.Run(ctx) }()
	}
	return p, nil
}

// stop cancels the streamers, waits for them, and closes the
// consolidator. It returns the first streamer or listener error.
func (p *fedPass) stop() error {
	p.cancel()
	var first error
	for _, s := range p.streamers {
		if s == nil {
			continue
		}
		if err := <-p.runErrs; err != nil && first == nil {
			first = err
		}
	}
	p.cons.Close()
	if err := <-p.served; err != nil && first == nil {
		first = err
	}
	return first
}

// chunk appends the next days to both sites, waits until the
// consolidator has acknowledged every entry, and runs one epoch. It
// returns the number of entries, the streaming and the total duration.
func (p *fedPass) chunk(f *fedState, from, to int, tr *tracer, op int64) (n int, stream, total time.Duration, err error) {
	t0 := time.Now()
	parent := tr.add(op, "round", -1, t0, t0)
	defer func() { tr.finish(parent, time.Now()) }()
	for i := range siteNames {
		for _, d := range f.days[i][from:to] {
			if err := p.sources[i].Append(d...); err != nil {
				return 0, 0, 0, err
			}
			n += len(d)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, s := range p.streamers {
		if err := s.Drain(ctx); err != nil {
			return 0, 0, 0, fmt.Errorf("drain: %w", err)
		}
	}
	t1 := time.Now()
	tr.add(op, "netfed.stream", parent, t0, t1)
	if _, err := p.cons.RunEpoch(); err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	tr.add(op, "netfed.epoch", parent, t1, t2)
	return n, t1.Sub(t0), t2.Sub(t0), nil
}

func runSiteFederation(cfg runConfig) (result, error) {
	sz := cfg.Sizes
	var f *fedState
	setupS, _, err := repeatSetup(sz.Setups, 0, func() (err error) {
		f, err = buildFed(cfg.Seed, sz)
		return err
	}, nil, nil, func() error { f = nil; return nil })
	if err != nil {
		return result{}, err
	}
	settle()

	tr := newTracer(cfg.Trace)
	var lat, views, rates []float64
	var roundTime time.Duration // time inside rounds; pass set-up and checks excluded
	var attempted, failed int64
	var checks []string
	var last *fedPass
	start := time.Now()
	for op := int64(0); ; {
		p, err := startPass(f)
		if err != nil {
			return result{}, err
		}
		for d := 0; d < sz.SiteDays; d += sz.ChunkDays {
			to := min(d+sz.ChunkDays, sz.SiteDays)
			attempted++
			n, st, total, err := p.chunk(f, d, to, tr, op)
			op++
			if err != nil {
				failed++
				lat = append(lat, inf)
				checks = append(checks, err.Error())
				break
			}
			lat = append(lat, ms(total))
			roundTime += total
			rates = append(rates, float64(n)/st.Seconds())
		}
		for i := 0; i < viewsPerPass; i++ {
			t := time.Now()
			got := p.cons.Consolidate()
			views = append(views, time.Since(t).Seconds())
			if d, err := digestResult(got); err != nil || d != f.oracle {
				checks = append(checks, fmt.Sprintf("consolidated view (%d entries) differs from the in-process federation", len(got.Entries)))
				break
			}
		}
		if time.Since(start) >= cfg.Duration || len(checks) > 0 {
			last = p
			break
		}
		if err := p.stop(); err != nil {
			failed++
			checks = append(checks, "streamer: "+err.Error())
		}
		// Every pass starts from a collected heap, so passes do not
		// inherit each other's garbage.
		settle()
	}
	heapMiB := liveHeapMiB()
	var probe map[string]metric
	if cfg.Trace && len(checks) == 0 {
		if probe, err = probeFed(f, last, sz); err != nil {
			return result{}, err
		}
	}
	if err := last.stop(); err != nil {
		failed++
		checks = append(checks, "streamer: "+err.Error())
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
		"ready_s":              {median(views), "s"},
		"op_per_s":             {float64(len(lat)) / roundTime.Seconds(), "1/s"},
		"op_p50_ms":            {quantile(lat, 0.5), "ms"},
		"op_p90_ms":            {quantile(lat, 0.9), "ms"},
		"ingest_entries_per_s": {median(rates), "entries/s"},
	}
	res.Correct = true
	if !cfg.Trace {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics, err = tracedMetrics(cfg, "site-federation", e2e, quantile(lat, 0.99), tr, probe)
	return res, err
}
