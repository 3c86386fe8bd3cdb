package audit

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// requireShardsSorted fails unless every shard of l holds its records
// in strictly ascending seq order, the invariant shard.put keeps.
func requireShardsSorted(t *testing.T, l *Log) {
	t.Helper()
	for i, sh := range l.shards {
		sh.mu.RLock()
		for j := 1; j < len(sh.recs); j++ {
			if sh.recs[j-1].seq >= sh.recs[j].seq {
				sh.mu.RUnlock()
				t.Fatalf("shard %d: seq %d at %d, then seq %d", i, sh.recs[j-1].seq, j-1, sh.recs[j].seq)
			}
		}
		sh.mu.RUnlock()
	}
}

// TestShardsStaySeqSorted: records reaching a shard out of seq order,
// one by one or in batches with explicit seqs, still leave it sorted,
// and the index folds each of them once.
func TestShardsStaySeqSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := genEntries(400)

	one := NewLogShards("s", 1)
	for _, i := range rng.Perm(len(entries)) {
		one.shards[0].add(uint64(i)+1, &entries[i])
	}
	requireShardsSorted(t, one)
	if !reflect.DeepEqual(one.Groups(), groupsByRescan(one)) {
		t.Fatal("per-record adds: index differs from a rescan")
	}

	// Batches whose seqs interleave with each other's and descend
	// within each batch.
	l := NewLogShards("s", 4)
	perm := rng.Perm(len(entries))
	for lo := 0; lo < len(perm); lo += 50 {
		batch := make([]Entry, 0, 50)
		seqs := make([]uint64, 0, 50)
		for _, i := range perm[lo : lo+50] {
			batch = append(batch, entries[i])
			seqs = append(seqs, uint64(len(entries)-i))
		}
		l.addMu.RLock()
		l.addToShards(batch, true, 0, seqs)
		l.addMu.RUnlock()
	}
	requireShardsSorted(t, l)
	if n := l.Len(); n != len(entries) {
		t.Fatalf("%d records, want %d", n, len(entries))
	}
	if !reflect.DeepEqual(l.Groups(), groupsByRescan(l)) {
		t.Fatal("batched adds: index differs from a rescan")
	}
}

// TestConcurrentLogWalks: a log built by concurrent appenders, single
// entries and batches mixed, keeps every shard sorted, and a Page walk
// and an ExportDelta walk with random bounds each reproduce Snapshot.
func TestConcurrentLogWalks(t *testing.T) {
	const writers, perWriter = 8, 600
	l := NewLog("s")
	entries := genEntries(writers * perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(mine []Entry, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for len(mine) > 0 {
				n := 1
				if rng.Intn(2) == 0 {
					n = min(len(mine), 1+rng.Intn(40))
				}
				if err := l.Append(mine[:n]...); err != nil {
					t.Error(err)
					return
				}
				mine = mine[n:]
			}
		}(entries[w*perWriter:(w+1)*perWriter], int64(w))
	}
	wg.Wait()
	requireShardsSorted(t, l)
	want := l.Snapshot()
	if len(want) != len(entries) {
		t.Fatalf("snapshot holds %d entries, want %d", len(want), len(entries))
	}

	rng := rand.New(rand.NewSource(11))
	var paged []Entry
	for after := uint64(0); ; {
		page, next, err := l.Page(after, 1+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		paged, after = append(paged, page...), next
	}
	if !reflect.DeepEqual(paged, want) {
		t.Fatalf("Page walk: %d entries differ from Snapshot", len(paged))
	}

	var exported []Entry
	var c ExportCursor
	for {
		batch, next, err := l.ExportDelta(c, 1+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			break
		}
		exported, c = append(exported, batch...), next
	}
	if !reflect.DeepEqual(exported, want) {
		t.Fatalf("ExportDelta walk: %d entries differ from Snapshot", len(exported))
	}
}
