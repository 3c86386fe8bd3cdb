package audit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sync"

	"repro/internal/storage"
)

// genEntries builds a deterministic workload with clustered
// timestamps (so same-instant ordering is exercised), mixed statuses,
// and occasional reasons.
func genDurableEntries(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	out := make([]Entry, n)
	for i := range out {
		e := Entry{
			// Integer division clusters several entries per instant.
			Time:       base.Add(time.Duration(rng.Intn(n/4+1)) * time.Second),
			Op:         Op(rng.Intn(2)),
			User:       fmt.Sprintf("user-%d", rng.Intn(7)),
			Data:       fmt.Sprintf("data-%d", rng.Intn(5)),
			Purpose:    fmt.Sprintf("purpose-%d", rng.Intn(3)),
			Authorized: fmt.Sprintf("role-%d", rng.Intn(4)),
			Status:     Status(rng.Intn(2)),
		}
		if e.Status == Exception && rng.Intn(2) == 0 {
			e.Reason = fmt.Sprintf("emergency-%d", i)
		}
		out[i] = e
	}
	return out
}

func jsonlBytes(t *testing.T, entries []Entry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteJSONL(&b, entries); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func sameStats(a, b Stats) bool {
	return a.Total == b.Total && a.Allowed == b.Allowed && a.Denied == b.Denied &&
		a.Exceptions == b.Exceptions && a.Regular == b.Regular && a.Users == b.Users &&
		a.First.Equal(b.First) && a.Last.Equal(b.Last)
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := genDurableEntries(300, 1)

	d, rs, err := OpenDurable("site-a", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointEntries != 0 || rs.WALEntries != 0 {
		t.Fatalf("fresh open recovered something: %+v", rs)
	}
	if err := d.Append(entries...); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	want := d.Log().Snapshot()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rs2, err := OpenDurable("site-a", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs2.WALEntries != len(entries) || rs2.CheckpointEntries != 0 {
		t.Fatalf("recovery stats %+v, want %d WAL entries", rs2, len(entries))
	}
	if rs2.IndexGroups == 0 || rs2.Elapsed <= 0 {
		t.Fatalf("recovery stats missing index/elapsed: %+v", rs2)
	}
	got := d2.Log().Snapshot()
	if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, want)) {
		t.Fatal("recovered snapshot is not byte-identical")
	}
	if !sameStats(d2.Log().Summary(), Summarize(want)) {
		t.Fatal("recovered incremental stats diverge from rescan")
	}
	// Recovery concluded with a checkpoint; a third open must load
	// everything from the checkpoint log and nothing from the WAL.
	d2.Close()
	d3, rs3, err := OpenDurable("site-a", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if rs3.CheckpointEntries != len(entries) || rs3.WALEntries != 0 {
		t.Fatalf("post-checkpoint recovery stats %+v", rs3)
	}
	if !bytes.Equal(jsonlBytes(t, d3.Log().Snapshot()), jsonlBytes(t, want)) {
		t.Fatal("checkpointed snapshot is not byte-identical")
	}
}

func TestDurableCheckpointCut(t *testing.T) {
	dir := t.TempDir()
	entries := genDurableEntries(150, 2)
	d, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[:100]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.CheckpointSeq(); got != 100 {
		t.Fatalf("checkpoint seq = %d, want 100", got)
	}
	if err := d.Append(entries[100:]...); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	want := d.Log().Snapshot()
	d.Close()

	d2, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs.CheckpointEntries != 100 || rs.WALEntries != 50 {
		t.Fatalf("recovery split %d/%d, want 100/50", rs.CheckpointEntries, rs.WALEntries)
	}
	if !bytes.Equal(jsonlBytes(t, d2.Log().Snapshot()), jsonlBytes(t, want)) {
		t.Fatal("recovered snapshot diverges")
	}
	// Recovery re-checkpointed the tail: a further reopen loads the
	// whole log from the index, and its JSONL export must be
	// byte-identical to WriteJSONL over the full append order.
	d2.Close()
	d3, rs3, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if rs3.CheckpointEntries != len(entries) || rs3.WALEntries != 0 {
		t.Fatalf("post-checkpoint recovery split %d/%d, want %d/0", rs3.CheckpointEntries, rs3.WALEntries, len(entries))
	}
	if !bytes.Equal(jsonlBytes(t, d3.Log().Snapshot()), jsonlBytes(t, want)) {
		t.Fatal("JSONL export of the reopened log diverges from WriteJSONL of the append order")
	}
}

// TestDurableSnapshotByTimeDifferential pins the index-served
// chronological reads to the in-memory oracle, across checkpoint
// boundaries (part index, part tail) and a crash/recovery cycle.
func TestDurableSnapshotByTimeDifferential(t *testing.T) {
	dir := t.TempDir()
	entries := genDurableEntries(400, 3)
	d, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[:250]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[250:]...); err != nil {
		t.Fatal(err)
	}

	check := func(d *Durable) {
		t.Helper()
		oracle := d.Log().SnapshotByTime()
		got, err := d.SnapshotRange(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, oracle)) {
			t.Fatal("index-served SnapshotByTime diverges from in-memory oracle")
		}
		// Range reads against the filtered oracle.
		base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
		for _, w := range [][2]time.Time{
			{base.Add(10 * time.Second), base.Add(60 * time.Second)},
			{time.Time{}, base.Add(30 * time.Second)},
			{base.Add(50 * time.Second), time.Time{}},
			{base.Add(30 * time.Second), base.Add(30 * time.Second)}, // empty
		} {
			from, to := w[0], w[1]
			var want []Entry
			for _, e := range oracle {
				if (from.IsZero() || !e.Time.Before(from)) && (to.IsZero() || e.Time.Before(to)) {
					want = append(want, e)
				}
			}
			got, err := d.SnapshotRange(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, want)) {
				t.Fatalf("SnapshotRange(%v, %v) diverges (%d vs %d entries)", from, to, len(got), len(want))
			}
		}
	}
	check(d)
	d.Sync()
	d.Close()
	d2, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	check(d2)
}

func TestDurableExpireDifferential(t *testing.T) {
	dir := t.TempDir()
	entries := genDurableEntries(300, 4)
	d, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[:200]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[200:]...); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	cutoff := base.Add(40 * time.Second)
	exc := base.Add(20 * time.Second)

	// The index-driven scan must agree with what the in-memory expiry
	// actually drops.
	scan, err := d.ExpireScan(cutoff, exc)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := d.Expire(cutoff, exc)
	if err != nil {
		t.Fatal(err)
	}
	if scan != dropped {
		t.Fatalf("index expiry scan predicts %d, in-memory expiry dropped %d", scan, dropped)
	}
	if dropped == 0 {
		t.Fatal("workload produced nothing to expire")
	}
	want := d.Log().Snapshot()
	for _, e := range want {
		if e.Time.Before(cutoff) && !(e.Status == Exception && !e.Time.Before(exc)) {
			t.Fatalf("unexpired entry at %v survived", e.Time)
		}
	}
	check := func(d *Durable) {
		t.Helper()
		idx, err := d.SnapshotRange(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonlBytes(t, idx), jsonlBytes(t, d.Log().SnapshotByTime())) {
			t.Fatal("post-expiry index view diverges from memory")
		}
	}
	check(d)
	d.Close()

	d2, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs.CheckpointEntries != len(want) || rs.WALEntries != 0 {
		t.Fatalf("post-expiry recovery %+v, want %d checkpointed", rs, len(want))
	}
	if !bytes.Equal(jsonlBytes(t, d2.Log().Snapshot()), jsonlBytes(t, want)) {
		t.Fatal("expired entries resurrected by recovery")
	}
	check(d2)
}

// TestDurableDeltaResyncAfterRecovery: a Delta cursor taken before a
// crash must be detected as stale after recovery replays a WAL tail,
// so incremental mining state is rebuilt instead of silently skipping
// recovered entries. After a clean, fully-checkpointed restart the
// cursor stays valid and Delta continues exactly where it left off.
func TestDurableDeltaResyncAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	entries := genDurableEntries(90, 9)
	d, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[:60]...); err != nil {
		t.Fatal(err)
	}
	_, cur, _ := d.Log().Delta(Cursor{})
	if err := d.Append(entries[60:]...); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	d.Close() // un-checkpointed tail -> recovery will replay the WAL

	d2, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALEntries == 0 {
		t.Fatalf("expected WAL replay: %+v", rs)
	}
	delta, cur2, resync := d2.Log().Delta(cur)
	if !resync {
		t.Fatal("stale cursor not detected after tail recovery")
	}
	if len(delta) != len(entries) {
		t.Fatalf("resync delta has %d entries, want %d", len(delta), len(entries))
	}
	d2.Close() // clean: recovery checkpointed everything already

	d3, rs3, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if rs3.WALEntries != 0 {
		t.Fatalf("clean restart replayed a tail: %+v", rs3)
	}
	delta, _, resync = d3.Log().Delta(cur2)
	if resync || len(delta) != 0 {
		t.Fatalf("cursor invalidated across clean restart: resync=%v delta=%d", resync, len(delta))
	}
}

func TestDurableFederation(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ea, eb := genDurableEntries(80, 10), genDurableEntries(80, 11)
	da, _, err := OpenDurable("site-a", dirA, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer da.Close()
	db, _, err := OpenDurable("site-b", dirB, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := da.Append(ea...); err != nil {
		t.Fatal(err)
	}
	if err := da.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(eb...); err != nil {
		t.Fatal(err)
	}

	f := &Federation{}
	f.AddSource(da.Log())
	f.AddSource(db.Log())
	got := f.Consolidate()

	var ref [][]Entry
	for _, d := range []*Durable{da, db} {
		es, err := d.SnapshotRange(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, es)
	}
	oracle := refConsolidate(ref)
	if !bytes.Equal(resultBytes(t, got), resultBytes(t, oracle)) {
		t.Fatalf("durable-sourced consolidation diverges from the index-read entry merge: %d/%d/%d vs %d/%d/%d",
			len(got.Entries), got.Duplicates, len(got.Conflicts),
			len(oracle.Entries), oracle.Duplicates, len(oracle.Conflicts))
	}
}

// TestDurableCrashInjectionDifferential is the torn-write differential
// suite: the whole store (index pages, WAL segments, checkpoint log)
// shares one byte budget and dies mid-write at a randomized offset,
// with explicit and background checkpoints interleaved.
// Recovery must always produce a clean prefix of the oracle's append
// order — byte-identical JSONL, matching refinement-index stats, and
// an index view equal to the in-memory one — and must include every
// entry acknowledged by a successful Sync.
func TestDurableCrashInjectionDifferential(t *testing.T) {
	entries := genDurableEntries(260, 12)
	// Append stamps the site; stamp the oracle copy up front so the
	// prefix comparison is over identical bytes.
	for i := range entries {
		entries[i].Site = "s"
	}
	for trial := 0; trial < 22; trial++ {
		budget := int64(600 + trial*731)
		dir := t.TempDir()
		fb := storage.NewFailBudget(budget)
		open := func(p string) (storage.File, error) {
			inner, err := storage.OpenOSFile(p)
			if err != nil {
				return nil, err
			}
			return storage.NewFailFileShared(inner, fb), nil
		}
		d, _, err := OpenDurable("s", dir, DurableOptions{
			OpenFile:       open,
			CommitInterval: -1, // flush every append: the budget dies mid-stream
		})
		if err != nil {
			continue // crashed during creation: nothing recoverable yet
		}
		synced := 0
		for i := range entries {
			if err := d.Append(entries[i]); err != nil {
				break
			}
			d.Sync()
			if d.wal.DurableLSN() >= uint64(i+1) {
				synced = i + 1
			}
			if i%90 == 89 {
				if err := d.Checkpoint(); err != nil {
					break
				}
			}
			if i%90 == 44 {
				// A background checkpoint races the appends that follow.
				d.wake <- struct{}{}
			}
			if fb.Failed() {
				break
			}
		}
		appended := d.Log().Len()
		d.Close()

		d2, rs, err := OpenDurable("s", dir, DurableOptions{})
		if err != nil {
			t.Fatalf("trial %d (budget %d): recovery failed: %v", trial, budget, err)
		}
		got := d2.Log().Snapshot()
		k := len(got)
		if k > appended {
			t.Fatalf("trial %d: recovered %d > appended %d", trial, k, appended)
		}
		if k < synced {
			t.Fatalf("trial %d (budget %d): recovered %d but %d were acknowledged durable",
				trial, budget, k, synced)
		}
		if !bytes.Equal(jsonlBytes(t, got), jsonlBytes(t, entries[:k])) {
			t.Fatalf("trial %d (budget %d): recovered state is not a clean prefix (k=%d)",
				trial, budget, k)
		}
		oracle := NewLog("s")
		if err := oracle.Append(entries[:k]...); err != nil {
			t.Fatal(err)
		}
		if !sameStats(d2.Log().Summary(), oracle.Summary()) {
			t.Fatalf("trial %d: recovered refinement stats diverge", trial)
		}
		idx, err := d2.SnapshotRange(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonlBytes(t, idx), jsonlBytes(t, oracle.SnapshotByTime())) {
			t.Fatalf("trial %d: recovered index view diverges from oracle", trial)
		}
		_ = rs
		// Life goes on after recovery: append, close, reopen.
		if err := d2.Append(entries[:5]...); err != nil {
			t.Fatalf("trial %d: post-recovery append: %v", trial, err)
		}
		d2.Sync()
		d2.Close()
		d3, _, err := OpenDurable("s", dir, DurableOptions{})
		if err != nil {
			t.Fatalf("trial %d: second recovery: %v", trial, err)
		}
		if d3.Log().Len() != k+5 {
			t.Fatalf("trial %d: post-recovery appends lost: %d != %d", trial, d3.Log().Len(), k+5)
		}
		d3.Close()
	}
}

// TestDurableConcurrentCheckpoint hammers appends, checkpoints, and
// index reads concurrently; run under -race it checks the checkpoint
// fence (Log.addMu) and the store's reader/checkpoint serialization.
// Afterwards everything appended must be present exactly once.
func TestDurableConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable("s", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			es := genDurableEntries(perWriter, int64(100+w))
			for i := range es {
				if err := d.Append(es[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var ckpt sync.WaitGroup
	ckpt.Add(2)
	go func() {
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := d.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer ckpt.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := d.SnapshotRange(time.Time{}, time.Time{}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	ckpt.Wait()
	d.Sync()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.Log().Len(); got != writers*perWriter {
		t.Fatalf("len = %d, want %d", got, writers*perWriter)
	}
	mem := d.Log().SnapshotByTime()
	idx, err := d.SnapshotRange(time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonlBytes(t, idx), jsonlBytes(t, mem)) {
		t.Fatal("index view diverges after concurrent checkpoints")
	}
	d.Close()

	d2, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs.CheckpointEntries != writers*perWriter || rs.WALEntries != 0 || d2.CheckpointSeq() != writers*perWriter {
		t.Fatalf("recovery after concurrent run: %+v, cut at seq %d", rs, d2.CheckpointSeq())
	}
}

// TestDurableExpireCrashInjection kills the store at randomized write
// offsets during Expire. Expiry must be all-or-nothing: whatever the
// crash point, reopen must succeed (the store is never left
// unopenable) and serve either the pre-expiry or the post-expiry
// generation — never a mix of the two — with the index view matching
// memory.
func TestDurableExpireCrashInjection(t *testing.T) {
	trial := expireCrashTrial(t)
	for i := 0; i < 24; i++ {
		trial(i, int64(1000+i*7919))
	}
}

// TestDurableExpireCrashSweep kills Expire at every 509th byte of its
// write stream, from the first byte until a budget lets it complete,
// so crash points land throughout the index pages, the freelist and
// the meta swap that commits them.
func TestDurableExpireCrashSweep(t *testing.T) {
	trial := expireCrashTrial(t)
	crashed := 0
	for i := 0; !trial(i, int64(i*509)); i++ {
		if crashed++; crashed > 400 {
			t.Fatal("Expire did not complete within 200 KB of writes")
		}
	}
	if crashed < 8 {
		t.Fatalf("only %d crash points before Expire completed", crashed)
	}
	t.Logf("%d crash points before Expire completed", crashed)
}

// expireCrashTrial returns a trial that seeds a fully checkpointed
// store, runs Expire on it with a write budget and a background
// checkpoint racing it, reopens, and checks the result against the
// pre- and post-expiry oracles. A trial reports
// whether Expire completed within the budget.
func expireCrashTrial(t *testing.T) func(trial int, budget int64) bool {
	entries := genDurableEntries(200, 13)
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	cutoff := base.Add(25 * time.Second)

	// Oracles: the same workload, expired (or not) in memory.
	preLog, postLog := NewLog("s"), NewLog("s")
	if err := preLog.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := postLog.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if postLog.Expire(cutoff, time.Time{}) == 0 {
		t.Fatal("workload has nothing to expire")
	}
	pre, post := jsonlBytes(t, preLog.Snapshot()), jsonlBytes(t, postLog.Snapshot())

	return func(trial int, budget int64) bool {
		t.Helper()
		dir := t.TempDir()
		// Seed a clean, fully checkpointed store without failpoints, so
		// the budget below is spent inside Expire alone.
		d, _, err := OpenDurable("s", dir, DurableOptions{CommitInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Append(entries...); err != nil {
			t.Fatal(err)
		}
		d.Sync()
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		d.Close()

		fb := storage.NewFailBudget(budget)
		open := func(p string) (storage.File, error) {
			inner, err := storage.OpenOSFile(p)
			if err != nil {
				return nil, err
			}
			return storage.NewFailFileShared(inner, fb), nil
		}
		d2, _, err := OpenDurable("s", dir, DurableOptions{OpenFile: open, CommitInterval: -1})
		if err != nil {
			return false // budget died during open's own bookkeeping
		}
		// A background checkpoint races the expiry for the budget.
		d2.wake <- struct{}{}
		_, eerr := d2.Expire(cutoff, time.Time{})
		completed := eerr == nil && !fb.Failed()
		d2.Close()

		d3, _, err := OpenDurable("s", dir, DurableOptions{})
		if err != nil {
			t.Fatalf("trial %d: store unopenable after crashed expiry: %v", trial, err)
		}
		got := jsonlBytes(t, d3.Log().Snapshot())
		switch {
		case completed && !bytes.Equal(got, post):
			t.Fatalf("trial %d: completed expiry lost after reopen", trial)
		case !completed && !bytes.Equal(got, pre) && !bytes.Equal(got, post):
			t.Fatalf("trial %d: mixed-generation state after crash (%d bytes, pre %d, post %d)",
				trial, len(got), len(pre), len(post))
		}
		idx, err := d3.SnapshotRange(time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonlBytes(t, idx), jsonlBytes(t, d3.Log().SnapshotByTime())) {
			t.Fatalf("trial %d: index view diverges from memory after crashed expiry", trial)
		}
		// Life goes on: the store keeps accepting work either way.
		if err := d3.Append(entries[:3]...); err != nil {
			t.Fatalf("trial %d: post-recovery append: %v", trial, err)
		}
		d3.Sync()
		d3.Close()
		return completed
	}
}

// TestDurableDirectRetention: Expire, Rotate and Reset called on a
// durable store's Log go through the store, checkpointed entries
// included. Each matches the in-memory oracle, commits (a reopen
// replays no WAL tail and serves exactly the survivors), and leaves
// the store checkpointing.
func TestDurableDirectRetention(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	entries := genDurableEntries(100, 14)
	oracle := NewLog("s")
	if err := oracle.Append(entries...); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[:60]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[60:]...); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	got, want := d.Log().Expire(base.Add(10*time.Second), time.Time{}), oracle.Expire(base.Add(10*time.Second), time.Time{})
	if got != want || want == 0 {
		t.Fatalf("Log.Expire dropped %d, oracle %d", got, want)
	}
	rotated, wantRotated := d.Log().Rotate(base.Add(20*time.Second)), oracle.Rotate(base.Add(20*time.Second))
	if len(wantRotated) == 0 || !bytes.Equal(jsonlBytes(t, rotated), jsonlBytes(t, wantRotated)) {
		t.Fatalf("Log.Rotate returned %d entries, oracle %d", len(rotated), len(wantRotated))
	}
	wantLog := jsonlBytes(t, oracle.Snapshot())
	if !bytes.Equal(jsonlBytes(t, d.Log().Snapshot()), wantLog) {
		t.Fatal("log after direct retention diverges from the oracle")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after direct retention: %v", err)
	}
	d.Close()

	d2, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALEntries != 0 || rs.CheckpointEntries != oracle.Len() || !bytes.Equal(jsonlBytes(t, d2.Log().Snapshot()), wantLog) {
		t.Fatalf("reopen after direct retention: %+v", rs)
	}
	d2.Log().Reset()
	if n := d2.Log().Len(); n != 0 {
		t.Fatalf("Log.Reset left %d entries", n)
	}
	d2.Close()
	d3, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if rs.CheckpointEntries != 0 || rs.WALEntries != 0 || d3.Log().Len() != 0 {
		t.Fatalf("reopen after Log.Reset: %+v, %d entries", rs, d3.Log().Len())
	}
}

// TestDurableDirLayout: the store writes exactly two artifacts —
// index.db and wal/ — through appends, a checkpoint, an expiry and a
// reopen. No JSONL copy of the log is written, and a well-formed
// log.jsonl beside a fresh store is never read.
func TestDurableDirLayout(t *testing.T) {
	dir := t.TempDir()
	stray := jsonlBytes(t, genDurableEntries(5, 16))
	if err := os.WriteFile(filepath.Join(dir, "log.jsonl"), stray, 0o644); err != nil {
		t.Fatal(err)
	}
	entries := genDurableEntries(120, 15)
	d, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointEntries != 0 || d.Log().Len() != 0 {
		t.Fatalf("fresh store opened with %d entries (stats %+v)", d.Log().Len(), rs)
	}
	if err := d.Append(entries[:80]...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries[80:]...); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	if n, err := d.Expire(base.Add(10*time.Second), time.Time{}); err != nil || n == 0 {
		t.Fatalf("expire dropped %d, err %v", n, err)
	}
	want := jsonlBytes(t, d.Log().Snapshot())
	d.Close()
	d2, _, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !bytes.Equal(jsonlBytes(t, d2.Log().Snapshot()), want) {
		t.Fatal("reopened log diverges from the expired one")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	if fmt.Sprint(names) != "[index.db log.jsonl wal]" {
		t.Fatalf("store directory holds %v, want [index.db log.jsonl wal]", names)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, "log.jsonl")); err != nil || !bytes.Equal(raw, stray) {
		t.Fatalf("log.jsonl changed (err %v)", err)
	}
}

// writeWALTail writes raw durable records into dir/wal: the state a
// crash leaves behind before the store ever checkpointed them.
func writeWALTail(t *testing.T, dir string, records [][]byte) {
	t.Helper()
	w, err := storage.OpenWAL(filepath.Join(dir, "wal"), storage.WALOptions{CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableReopenIdempotent: recovering a WAL tail whose sequence
// numbers have gaps, closed by a drop marker — what a sink that could
// skip entries left behind — must leave nothing for the next open to
// replay. N reopens give the log of one — also when a crash between
// the concluding store checkpoint and the WAL truncation leaves the
// pre-recovery WAL in place.
func TestDurableReopenIdempotent(t *testing.T) {
	dir := t.TempDir()
	entries := genDurableEntries(5, 16)
	for i := range entries {
		entries[i].Site = "s"
	}
	// Seqs 3, 6, 7, 9 and 10 were dropped; the marker carries 10.
	var records [][]byte
	for i, seq := range []uint64{1, 2, 4, 5, 8} {
		records = append(records, appendStamped(nil, seq, &entries[i]))
	}
	records = append(records, binary.AppendUvarint([]byte{0x00}, 10))
	writeWALTail(t, dir, records)

	d, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.WALEntries != len(entries) {
		t.Fatalf("first reopen recovered %d entries, want %d", rs.WALEntries, len(entries))
	}
	// Numbering resumes past the highest seq the WAL holds; the marker
	// is skipped.
	if got := d.CheckpointSeq(); got != 8 {
		t.Fatalf("recovery cut at seq %d, want 8", got)
	}
	want := jsonlBytes(t, d.Log().Snapshot())
	if !bytes.Equal(want, jsonlBytes(t, entries)) {
		t.Fatal("first reopen diverges from the WAL's entries")
	}
	d.Close()

	reopen := func(label string) {
		t.Helper()
		d, rs, err := OpenDurable("s", dir, DurableOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		defer d.Close()
		if rs.WALEntries != 0 {
			t.Fatalf("%s replayed %d WAL entries again", label, rs.WALEntries)
		}
		if !bytes.Equal(jsonlBytes(t, d.Log().Snapshot()), want) {
			t.Fatalf("%s: log diverges from the first reopen (%d entries)", label, d.Log().Len())
		}
	}
	reopen("second reopen")
	reopen("third reopen")
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	writeWALTail(t, dir, records)
	reopen("reopen over the pre-recovery WAL")
	reopen("reopen after that")
}

// writeLegacyLayout builds a store as an earlier layout left it:
// index.db holding every checkpointed entry under its stored seq, and
// a meta blob in the JSONL-checkpointing layout's "ADU1"/"ADU2" form
// with the JSONL byte length (and, for ADU2, a flags word) in it, or
// in the "ADU3" form with a drop word. log.jsonl and log.compact.jsonl
// beside it hold bytes recovery must never read.
func writeLegacyLayout(t *testing.T, dir, magic string, flags uint64, entries []Entry, seqs []uint64, dropped, epoch uint64) {
	t.Helper()
	st, err := storage.OpenStore(filepath.Join(dir, "index.db"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		k := indexKey(entries[i].Time, entries[i].Status, seqs[i])
		if err := st.Put(k, appendStamped(nil, seqs[i], &entries[i])); err != nil {
			t.Fatal(err)
		}
	}
	blob := []byte(magic)
	words := []uint64{seqs[len(seqs)-1] + 2, 12345, uint64(len(entries)), dropped, epoch}
	if magic == "ADU3" {
		words = append(words[:1], words[2:]...)
	}
	for _, w := range words {
		blob = binary.LittleEndian.AppendUint64(blob, w)
	}
	if magic == "ADU2" {
		blob = binary.LittleEndian.AppendUint64(blob, flags)
	}
	if err := st.Checkpoint(blob); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"log.jsonl", "log.compact.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{not the log}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableOpensLegacyLayout: stores written while log.jsonl was a
// second checkpoint copy open with the same entries, drop count and
// epoch — including one whose meta still carries the compact-pending
// flag, since the index was already the post-expiry generation — and
// keep working after the first new checkpoint.
func TestDurableOpensLegacyLayout(t *testing.T) {
	entries := genDurableEntries(60, 17)
	for i := range entries {
		entries[i].Site = "s"
	}
	// Stored seqs ascend in append order with gaps, like a store that
	// recovered across generations and dropped entries.
	seqs := make([]uint64, len(entries))
	for i := range seqs {
		seqs[i] = uint64(3*i + 1)
	}
	want := jsonlBytes(t, entries)
	for _, c := range []struct {
		magic string
		flags uint64
	}{{"ADU1", 0}, {"ADU2", 0}, {"ADU2", 1}} {
		t.Run(fmt.Sprintf("%s-flags%d", c.magic, c.flags), func(t *testing.T) {
			dir := t.TempDir()
			writeLegacyLayout(t, dir, c.magic, c.flags, entries, seqs, 7, 4)
			d, rs, err := OpenDurable("s", dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rs.CheckpointEntries != len(entries) || rs.WALEntries != 0 {
				t.Fatalf("recovery stats %+v", rs)
			}
			if !bytes.Equal(jsonlBytes(t, d.Log().Snapshot()), want) {
				t.Fatal("legacy-layout store opened with different entries")
			}
			if got := d.Log().epoch.Load(); got != 4 {
				t.Fatalf("epoch %d, want 4", got)
			}
			extra := genDurableEntries(10, 18)
			if err := d.Append(extra...); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			all := jsonlBytes(t, d.Log().Snapshot())
			d.Close()
			d2, rs2, err := OpenDurable("s", dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if rs2.CheckpointEntries != len(entries)+len(extra) {
				t.Fatalf("after a new checkpoint: %+v", rs2)
			}
			if app := d2.store.App(); string(app[:4]) != appMagic || binary.LittleEndian.Uint64(app[20:]) != 0 {
				t.Fatalf("new checkpoint wrote meta %q with drop word %d, want ADU3 with 0", app[:4], binary.LittleEndian.Uint64(app[20:]))
			}
			if !bytes.Equal(jsonlBytes(t, d2.Log().Snapshot()), all) {
				t.Fatal("appends on a legacy-layout store did not round-trip")
			}
		})
	}
	// The attested count guards the only checkpoint copy: an index that
	// lost an entry the meta attests must not open.
	t.Run("missing-entry", func(t *testing.T) {
		dir := t.TempDir()
		writeLegacyLayout(t, dir, "ADU2", 0, entries, seqs, 7, 4)
		st, err := storage.OpenStore(filepath.Join(dir, "index.db"), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := st.Delete(indexKey(entries[5].Time, entries[5].Status, seqs[5])); err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if err := st.Checkpoint(st.App()); err != nil {
			t.Fatal(err)
		}
		st.Close()
		if d, _, err := OpenDurable("s", dir, DurableOptions{}); err == nil {
			d.Close()
			t.Fatal("an index missing an attested entry opened")
		}
	})
}

// TestDurableOpensParentLayout: a store written while the sink could
// skip entries — an ADU3 meta with a non-zero drop word over an index
// with seq gaps, and a WAL tail with a gap and a drop marker — opens
// with every entry in append order, replays its tail once, and writes
// a zero drop word at its next checkpoint.
func TestDurableOpensParentLayout(t *testing.T) {
	entries := genDurableEntries(30, 21)
	for i := range entries {
		entries[i].Site = "s"
	}
	ckpt, tail := entries[:20], entries[20:]
	seqs := make([]uint64, len(ckpt))
	for i := range seqs {
		seqs[i] = uint64(2*i + 1)
	}
	dir := t.TempDir()
	writeLegacyLayout(t, dir, "ADU3", 0, ckpt, seqs, 9, 3) // cut at seq 41
	var records [][]byte
	for i := range tail {
		records = append(records, appendStamped(nil, uint64(42+i+i/4), &tail[i]))
	}
	records = append(records, binary.AppendUvarint([]byte{0x00}, 60))
	writeWALTail(t, dir, records)

	want := jsonlBytes(t, entries)
	d, rs, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointEntries != len(ckpt) || rs.WALEntries != len(tail) {
		t.Fatalf("recovery stats %+v", rs)
	}
	if !bytes.Equal(jsonlBytes(t, d.Log().Snapshot()), want) {
		t.Fatal("parent-layout store opened with different entries")
	}
	if got := d.Log().epoch.Load(); got != 4 {
		t.Fatalf("epoch %d, want 4 (the replayed tail advances it)", got)
	}
	d.Close()

	d2, rs2, err := OpenDurable("s", dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rs2.CheckpointEntries != len(entries) || rs2.WALEntries != 0 {
		t.Fatalf("second open: %+v", rs2)
	}
	if !bytes.Equal(jsonlBytes(t, d2.Log().Snapshot()), want) {
		t.Fatal("second open diverges from the first")
	}
	if app := d2.store.App(); string(app[:4]) != appMagic || binary.LittleEndian.Uint64(app[20:]) != 0 {
		t.Fatalf("recovery checkpoint wrote meta %q with drop word %d, want ADU3 with 0", app[:4], binary.LittleEndian.Uint64(app[20:]))
	}
}

// TestDecodeStampedStrict: the checkpoint's only copy of an entry is
// rejected when it carries trailing bytes or an op or status Validate
// refuses, and recovery refuses a WAL record Validate refuses.
func TestDecodeStampedStrict(t *testing.T) {
	e := genDurableEntries(1, 19)[0]
	rec := appendStamped(nil, 7, &e)
	if seq, got, err := decodeStamped(rec); err != nil || seq != 7 || got.Key() != e.Key() {
		t.Fatalf("clean record: seq %d, err %v", seq, err)
	}
	if _, _, err := decodeStamped(append(rec, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	for _, bad := range []Entry{{Op: 2}, {Status: 2}, {Op: -1}} {
		b := e
		if bad.Op != 0 {
			b.Op = bad.Op
		}
		if bad.Status != 0 {
			b.Status = bad.Status
		}
		if _, _, err := decodeStamped(appendStamped(nil, 7, &b)); err == nil {
			t.Errorf("op %d status %d accepted", b.Op, b.Status)
		}
	}
	// A WAL tail record Validate refuses keeps the store from opening,
	// as an index record would.
	bad := e
	bad.Time = e.Time.In(time.FixedZone("", 25*3600))
	dir := t.TempDir()
	writeWALTail(t, dir, [][]byte{appendStamped(nil, 1, &bad)})
	if d, _, err := OpenDurable("s", dir, DurableOptions{}); err == nil {
		d.Close()
		t.Error("a WAL record with a 25-hour zone offset opened")
	}
}
