package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/workflow"
)

// BenchmarkConsolidate consolidates two simulated site logs (the
// LargeHospital simulator with 50 departments, seeds 1 and 2, 30 days
// each: about 58k entries a site; 3 days with -short). "memory" holds
// both logs in memory; "durable" opens each through OpenDurable and
// cuts a checkpoint after two thirds of its days, so at least that
// much of each site is read from the index.
func BenchmarkConsolidate(b *testing.B) {
	days := 30
	if testing.Short() {
		days = 3
	}
	var corpus [2][][]audit.Entry
	total := 0
	for i := range corpus {
		sim, err := workflow.New(workflow.LargeHospital(int64(i+1), 50))
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < days; d++ {
			es, err := sim.Run(d, 1)
			if err != nil {
				b.Fatal(err)
			}
			corpus[i] = append(corpus[i], es)
			total += len(es)
		}
	}
	site := func(i int) string { return []string{"site-a", "site-b"}[i] }

	run := func(b *testing.B, logs []*audit.Log) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := audit.NewFederation(logs...).Consolidate(); len(res.Entries)+res.Duplicates != total {
				b.Fatalf("consolidated %d entries and %d duplicates, want %d in all", len(res.Entries), res.Duplicates, total)
			}
		}
		b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
	}

	b.Run("memory", func(b *testing.B) {
		logs := make([]*audit.Log, len(corpus))
		for i, siteDays := range corpus {
			logs[i] = audit.NewLog(site(i))
			for _, es := range siteDays {
				if err := logs[i].Append(es...); err != nil {
					b.Fatal(err)
				}
			}
		}
		run(b, logs)
	})

	b.Run("durable", func(b *testing.B) {
		logs := make([]*audit.Log, len(corpus))
		for i, siteDays := range corpus {
			d, _, err := audit.OpenDurable(site(i), b.TempDir(), audit.DurableOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for j, es := range siteDays {
				if j == 2*len(siteDays)/3 {
					if err := d.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				if err := d.Append(es...); err != nil {
					b.Fatal(err)
				}
			}
			logs[i] = d.Log()
		}
		run(b, logs)
	})
}
