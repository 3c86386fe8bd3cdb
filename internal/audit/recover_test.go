package audit

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// foldCorpus returns n entries with clustered instants (equal times
// across statuses, so window ties straddle the index's key ranges),
// three zone offsets and both statuses.
func foldCorpus(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 3, 1, 4, 0, 0, 0, time.UTC)
	zones := []*time.Location{time.UTC, time.FixedZone("", -5*3600), time.FixedZone("", 2*3600)}
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Time:       base.Add(time.Duration(rng.Intn(n/3+1)) * 17 * time.Second).In(zones[rng.Intn(len(zones))]),
			Op:         Op(rng.Intn(2)),
			User:       fmt.Sprintf("user-%d", rng.Intn(60)),
			Data:       fmt.Sprintf("data-%d", rng.Intn(9)),
			Purpose:    fmt.Sprintf("purpose-%d", rng.Intn(4)),
			Authorized: fmt.Sprintf("role-%d", rng.Intn(5)),
			Status:     Status(rng.Intn(2)),
		}
	}
	return out
}

// indexViews is what a fold rebuilds, with every time reduced to its
// instant and offset, as a checkpointed entry keeps it.
type indexViews struct {
	Groups   []Group
	Summary  Stats
	Practice [][]PracticeGroup
}

func foldViews(l *Log) indexViews {
	v := indexViews{Groups: append([]Group(nil), l.Groups()...), Summary: l.Summary(), Practice: l.PracticeShards()}
	for i := range v.Groups {
		v.Groups[i].First, v.Groups[i].Last = offsetZone(v.Groups[i].First), offsetZone(v.Groups[i].Last)
	}
	v.Summary.First, v.Summary.Last = offsetZone(v.Summary.First), offsetZone(v.Summary.Last)
	for _, gs := range v.Practice {
		for i := range gs {
			gs[i].First, gs[i].Last = offsetZone(gs[i].First), offsetZone(gs[i].Last)
		}
	}
	return v
}

// TestFoldRangesMatchMemory checks the parallel index fold: a store
// recovered with the index folded as 1, 2 and 4 key ranges (the range
// count follows GOMAXPROCS) rebuilds the same Groups, Summary and
// PracticeShards as an in-memory log of the same entries, and so does
// the retention rebuild of Expire, on the open store and after a
// reopen.
func TestFoldRangesMatchMemory(t *testing.T) {
	entries := foldCorpus(24_000, 5)
	oracle := NewLog("main")
	if err := oracle.Append(entries...); err != nil {
		t.Fatal(err)
	}
	cutoff := entries[0].Time.Add(time.Duration(len(entries)/9) * 17 * time.Second)
	exCutoff := cutoff.Add(-time.Duration(len(entries)/30) * 17 * time.Second)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprint(procs, "ranges"), func(t *testing.T) {
			dir := t.TempDir()
			d, _, err := OpenDurable("main", dir, DurableOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Append(entries...); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			d, rs, err := OpenDurable("main", dir, DurableOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { d.Close() }()
			if rs.CheckpointEntries != len(entries) || rs.WALEntries != 0 {
				t.Fatalf("recovered %d checkpointed and %d WAL entries, want %d and 0", rs.CheckpointEntries, rs.WALEntries, len(entries))
			}
			if splits, err := d.store.Splits(procs); err != nil || len(splits) != procs-1 {
				t.Fatalf("index splits into %d ranges (err %v), want %d", len(splits)+1, err, procs)
			}
			want := foldViews(oracle)
			if got := foldViews(d.Log()); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered index differs from the in-memory log\ngot  %+v\nwant %+v", got.Summary, want.Summary)
			}

			mem := NewLog("main")
			if err := mem.Append(entries...); err != nil {
				t.Fatal(err)
			}
			dropped := mem.Expire(cutoff, exCutoff)
			if got := d.Log().Expire(cutoff, exCutoff); got != dropped || dropped == 0 {
				t.Fatalf("Expire dropped %d entries, in-memory log %d", got, dropped)
			}
			want = foldViews(mem)
			if got := foldViews(d.Log()); !reflect.DeepEqual(got, want) {
				t.Fatalf("index after Expire differs from the in-memory log\ngot  %+v\nwant %+v", got.Summary, want.Summary)
			}
			d.Close()
			d, _, err = OpenDurable("main", dir, DurableOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := foldViews(d.Log()); !reflect.DeepEqual(got, want) {
				t.Fatalf("index reopened after Expire differs from the in-memory log\ngot  %+v\nwant %+v", got.Summary, want.Summary)
			}
		})
	}
}

// TestAbsorbMatchesFold checks shard.absorb on its own, away from the
// index's key ranges, which hand it records in time order: records
// dealt at random over four shards, each folded on its own dictionary
// and then absorbed into one, give the index a single shard folding
// every record builds.
func TestAbsorbMatchesFold(t *testing.T) {
	entries := foldCorpus(6000, 9)
	rng := rand.New(rand.NewSource(9))
	whole, merged := NewLog("main"), NewLog("main")
	parts := make([]*shard, 4)
	for i := range parts {
		parts[i] = &shard{}
	}
	for i := range entries {
		r := whole.shards[0].record(uint64(i+1), &entries[i])
		whole.shards[0].indexLocked(&r)
		p := parts[rng.Intn(len(parts))]
		r = p.record(uint64(i+1), &entries[i])
		p.indexLocked(&r)
	}
	for _, p := range parts {
		merged.shards[0].absorb(p)
	}
	if got, want := foldViews(merged), foldViews(whole); !reflect.DeepEqual(got, want) {
		t.Fatalf("absorbed shards differ from one fold\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCheckpointLeavesNoWAL checks that the WAL rolls at each cut: a
// store that appends, checkpoints and closes leaves no frame in wal/,
// so a reopen validates none again. The last rounds checkpoint right
// after their append, while the sink may still hold entries the WAL
// has not seen (on one P the sink goroutine has not run yet):
// Checkpoint must drain it before the roll.
func TestCheckpointLeavesNoWAL(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	d, _, err := OpenDurable("hospital", dir, DurableOptions{NoSync: true, CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	es := coldCorpus(100_000, 3)
	if err := d.Append(es[:80_000]...); err != nil {
		t.Fatal(err)
	}
	for j := 80_000; j < len(es); j += 2000 {
		if err := d.Append(es[j : j+2000]...); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Replay(filepath.Join(dir, "wal"), nil, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Segments != 1 {
		t.Fatalf("wal/ holds %d frames in %d segments after Checkpoint and Close, want 0 in 1", st.Records, st.Segments)
	}
	d, rs, err := OpenDurable("hospital", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rs.CheckpointEntries != len(es) || rs.WALEntries != 0 {
		t.Fatalf("reopen recovered %d checkpointed and %d WAL entries, want %d and 0", rs.CheckpointEntries, rs.WALEntries, len(es))
	}
}

// TestCutSurvivesFailedRoll checks that a WAL that cannot roll does
// not stop a checkpoint: the roll's error goes to OnErr, the cut
// commits, and a reopen recovers every entry from the index.
func TestCutSurvivesFailedRoll(t *testing.T) {
	dir := t.TempDir()
	var segments, reported atomic.Int32
	open := func(path string) (storage.File, error) {
		if strings.HasPrefix(filepath.Base(path), "wal-") && segments.Add(1) > 1 {
			return nil, errors.New("injected: no second WAL segment")
		}
		return storage.OpenOSFile(path)
	}
	d, _, err := OpenDurable("main", dir, DurableOptions{NoSync: true, OpenFile: open,
		OnErr: func(error) { reported.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	entries := foldCorpus(3000, 2)
	if err := d.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after a failed roll: %v", err)
	}
	if reported.Load() == 0 {
		t.Fatal("the failed roll reached no OnErr")
	}
	d.Close() // reports the WAL's sticky error
	d, rs, err := OpenDurable("main", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if rs.CheckpointEntries != len(entries) || rs.WALEntries != 0 {
		t.Fatalf("reopen recovered %d checkpointed and %d WAL entries, want %d and 0", rs.CheckpointEntries, rs.WALEntries, len(entries))
	}
}
