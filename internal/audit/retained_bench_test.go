package audit_test

import (
	"bytes"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/audit"
	"repro/internal/workflow"
)

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// BenchmarkLogRetainedBytes measures what an audit log retains per
// entry: a simulator corpus (LargeHospital, 50 departments, 105 days,
// about 200k entries; 10 days with -short) is decoded from JSONL, so
// every entry owns its strings as it would after recovery or a wire
// read, appended day by day, and the live heap the log adds is
// reported per entry after a GC.
func BenchmarkLogRetainedBytes(b *testing.B) {
	days := 105
	if testing.Short() {
		days = 10
	}
	sim, err := workflow.New(workflow.LargeHospital(1, 50))
	if err != nil {
		b.Fatal(err)
	}
	var corpus [][]byte // one JSONL document per simulated day
	for d := 0; d < days; d++ {
		es, err := sim.Run(d, 1)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := audit.WriteJSONL(&buf, es); err != nil {
			b.Fatal(err)
		}
		corpus = append(corpus, buf.Bytes())
	}
	b.ResetTimer()
	var perEntry float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		l := audit.NewLog("site")
		for _, doc := range corpus {
			es, err := audit.ReadJSONL(bytes.NewReader(doc))
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Append(es...); err != nil {
				b.Fatal(err)
			}
		}
		perEntry = float64(liveHeap()-before) / float64(l.Len())
		runtime.KeepAlive(l)
	}
	b.ReportMetric(perEntry, "B/entry")
}
