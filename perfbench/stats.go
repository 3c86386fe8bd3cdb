package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs, sorting a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// inf is the latency recorded for a failed operation: it misses every
// latency limit.
var inf = math.Inf(1)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// rateWindow is the window width of throughput figures.
const rateWindow = 500 * time.Millisecond

// windowRate splits [0, span) into windows of width w and returns the
// median, over whole windows, of the events' summed weights per second.
// at holds each event's completion time since the start of the
// measurement; weight nil counts each event once. The median of window
// rates keeps a transient stall on a shared host from moving the
// figure.
func windowRate(at []time.Duration, weight []float64, span, w time.Duration) float64 {
	n := int(span / w)
	if n < 1 {
		// Shorter than a window: the plain rate.
		n, w = 1, span
	}
	sums := make([]float64, n)
	for i, t := range at {
		k := int(t / w)
		if k >= n {
			continue
		}
		if weight == nil {
			sums[k]++
		} else {
			sums[k] += weight[i]
		}
	}
	for i := range sums {
		sums[i] /= w.Seconds()
	}
	return median(sums)
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMiB collects garbage and returns the live Go heap in MiB:
// what the system retains at the end of the measured phase. Sampling
// live bytes during the phase would see transient working sets only
// when a collection happens to end while they are live, which made the
// figure bimodal from run to run.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the enclosing span or -1.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; Dump writes them out once the run is
// over. A nil *tracer records nothing, which is the untraced run. A
// tracer belongs to one goroutine: concurrent clients record into forks
// that are joined back after they finish.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// fork returns a tracer with the same origin for another goroutine.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0}
}

// join appends the spans of a fork whose goroutine has finished.
func (t *tracer) join(f *tracer) {
	if t == nil {
		return
	}
	off := len(t.spans)
	for _, s := range f.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(op int64, name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// finish sets the end of span i, recorded earlier with add.
func (t *tracer) finish(i int, end time.Time) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(end.Sub(t.t0))
}

// Dump writes the spans as JSON lines.
func (t *tracer) Dump(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// settle collects garbage left by set-up so it does not count against
// the measured phase.
func settle() { runtime.GC() }

// repeatSetup runs build and then open n times, calling drop between
// repetitions, and then closes and reopens the last state until open
// has run opens times. It returns the median duration of build and of
// open; the last state stays open. open and shut are nil when the
// workload has no restart.
func repeatSetup(n, opens int, build, open, shut, drop func() error) (setupS, readyS float64, err error) {
	var builds, reopens []float64
	timeOpen := func() error {
		settle()
		t := time.Now()
		if err := open(); err != nil {
			return err
		}
		reopens = append(reopens, time.Since(t).Seconds())
		return nil
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := drop(); err != nil {
				return 0, 0, err
			}
		}
		settle()
		t := time.Now()
		if err := build(); err != nil {
			return 0, 0, err
		}
		builds = append(builds, time.Since(t).Seconds())
		if open != nil {
			if err := timeOpen(); err != nil {
				return 0, 0, err
			}
		}
	}
	for open != nil && len(reopens) < opens {
		if err := shut(); err != nil {
			return 0, 0, err
		}
		if err := timeOpen(); err != nil {
			return 0, 0, err
		}
	}
	return median(builds), median(reopens), nil
}
