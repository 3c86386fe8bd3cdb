// Command perfbench is the repository benchmark: it drives the
// assembled PRIMA system from outside, through public calls, on three
// workloads generated from a seed by the workflow simulator, checks
// every output against an independent oracle, and prints one JSON
// result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload ward-shift --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics plus the traced run's own
// end-to-end figures. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is everything one run needs besides the workload sizes.
type runConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	Work     string // scratch directory for durable state and traces
	Sizes    sizes
}

// runFunc runs one workload and returns its result. A run whose
// output checks fail returns Correct=false and no metrics.
type runFunc func(cfg runConfig) (result, error)

var workloads = map[string]runFunc{
	"ward-shift":      runWardShift,
	"officer-review":  runOfficerReview,
	"site-federation": runSiteFederation,
}

// hostInfo records where a run was measured.
type hostInfo struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// commit is the VCS revision the binary was built from, when the build
// saw a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "ward-shift | officer-review | site-federation")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measurement duration in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench-work", "scratch directory for durable state and span dumps")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	host := hostInfo{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit(),
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Work:     dir,
		Sizes:    defaultSizes(),
	}
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}
