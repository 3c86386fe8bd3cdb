package audit

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The durable store's cold-prefix benchmarks: ingest through the
// background checkpointer, recovery of a checkpointed store, and
// append-order reads of the checkpointed prefix (DESIGN.md's audit
// store section cites them), plus a page walk of the same corpus held
// in memory. -short shrinks the corpus tenfold.

// coldCorpusSize is the entry count the benchmarks checkpoint.
func coldCorpusSize() int {
	if testing.Short() {
		return 20_000
	}
	return 200_000
}

// coldCorpus returns n entries in time order, shaped like a hospital
// day: a few hundred users over tens of groups.
func coldCorpus(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Time:       base.Add(time.Duration(i) * 40 * time.Second),
			Op:         Op(rng.Intn(2)),
			User:       fmt.Sprintf("user-%d", rng.Intn(400)),
			Data:       fmt.Sprintf("data-%d", rng.Intn(30)),
			Purpose:    fmt.Sprintf("purpose-%d", rng.Intn(6)),
			Authorized: fmt.Sprintf("role-%d", rng.Intn(8)),
			Status:     Status(rng.Intn(2)),
			Site:       "hospital",
		}
	}
	return out
}

// coldStore returns a store in dir holding the corpus, checkpointed
// and closed.
func coldStore(b *testing.B, dir string) {
	d, _, err := OpenDurable("hospital", dir, DurableOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Append(coldCorpus(coldCorpusSize(), 1)...); err != nil {
		b.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDurableIngest appends the corpus in batches of 2000, the
// checkpointer cutting in the background, and ends with a checkpoint.
func BenchmarkDurableIngest(b *testing.B) {
	es := coldCorpus(coldCorpusSize(), 1)
	for i := 0; i < b.N; i++ {
		d, _, err := OpenDurable("hospital", b.TempDir(), DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(es); j += 2000 {
			if err := d.Append(es[j : j+2000]...); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		d.Close()
	}
}

// BenchmarkDurableRecover reopens a checkpointed store.
func BenchmarkDurableRecover(b *testing.B) {
	dir := b.TempDir()
	coldStore(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := OpenDurable("hospital", dir, DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		d.Close()
	}
}

// BenchmarkColdRead reads a checkpointed store's entries in append
// order: all of them, and one 1000-entry page from the middle.
func BenchmarkColdRead(b *testing.B) {
	dir := b.TempDir()
	coldStore(b, dir)
	d, _, err := OpenDurable("hospital", dir, DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	n, l := coldCorpusSize(), d.Log()
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(l.Snapshot()) != n {
				b.Fatal("short snapshot")
			}
		}
		b.ReportMetric(float64(d.store.Pages()), "index-pages")
	})
	b.Run("page1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if es, _, err := l.Page(uint64(n/2), 1000); err != nil || len(es) != 1000 {
				b.Fatal("short page")
			}
		}
	})
}

// BenchmarkPageWalk pages through an in-memory log of the corpus from
// the zero sequence number, 1000 entries a page.
func BenchmarkPageWalk(b *testing.B) {
	n, l := coldCorpusSize(), NewLog("hospital")
	if err := l.Append(coldCorpus(n, 1)...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		for after := uint64(0); ; {
			es, next, err := l.Page(after, 1000)
			if err != nil {
				b.Fatal(err)
			}
			if len(es) == 0 {
				break
			}
			got, after = got+len(es), next
		}
		if got != n {
			b.Fatalf("walked %d entries, want %d", got, n)
		}
	}
}
