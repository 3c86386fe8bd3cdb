package audit

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// legacyStore writes a (time, status, seq)-keyed store with an ADU3
// meta and a WAL tail into dir and returns the entries it holds, in
// append order.
func legacyStore(t *testing.T, dir string) []Entry {
	t.Helper()
	entries := genDurableEntries(240, 23)
	for i := range entries {
		entries[i].Site = "s"
	}
	ckpt, tail := entries[:200], entries[200:]
	seqs := make([]uint64, len(ckpt))
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	writeLegacyLayout(t, dir, "ADU3", 0, ckpt, seqs, 0, 5) // cut at seq 202
	var records [][]byte
	for i := range tail {
		records = append(records, appendStamped(nil, uint64(203+i), &tail[i]))
	}
	writeWALTail(t, dir, records)
	return entries
}

// checkSeqLayout fails unless d's index is in the seq-keyed layout:
// the current meta magic, and only 8-byte keys.
func checkSeqLayout(t *testing.T, d *Durable) {
	t.Helper()
	if app := d.store.App(); string(app[:4]) != appMagic {
		t.Fatalf("meta magic %q, want %q", app[:4], appMagic)
	}
	if err := d.store.Scan(nil, nil, func(k, _ []byte) bool {
		if len(k) != 8 {
			t.Fatalf("index holds a %d-byte key", len(k))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationCrashInjection: the one-time migration of a legacy
// store is crash-safe. The open dies at every write budget from zero
// to past a clean open's writes; whichever layout survives, the next
// open serves a byte-identical Snapshot and leaves the index in the
// seq-keyed layout.
func TestMigrationCrashInjection(t *testing.T) {
	want := jsonlBytes(t, legacyStore(t, t.TempDir()))
	crashed := 0
	for budget := int64(0); ; budget += 509 {
		dir := t.TempDir()
		legacyStore(t, dir)
		fb := storage.NewFailBudget(budget)
		open := func(p string) (storage.File, error) {
			inner, err := storage.OpenOSFile(p)
			if err != nil {
				return nil, err
			}
			return storage.NewFailFileShared(inner, fb), nil
		}
		d, _, err := OpenDurable("s", dir, DurableOptions{OpenFile: open})
		if err == nil {
			d.Close()
		}
		if !fb.Failed() {
			if err != nil {
				t.Fatalf("budget %d: open failed without a crash: %v", budget, err)
			}
			break // the whole open fit in the budget
		}
		crashed++
		d, _, err = OpenDurable("s", dir, DurableOptions{})
		if err != nil {
			t.Fatalf("budget %d: reopen after a crashed migration: %v", budget, err)
		}
		if !bytes.Equal(jsonlBytes(t, d.Log().Snapshot()), want) {
			t.Fatalf("budget %d: reopen after a crashed migration serves other entries", budget)
		}
		checkSeqLayout(t, d)
		d.Close()
	}
	if crashed < 10 {
		t.Fatalf("only %d crash points; the migration should write more", crashed)
	}
}

// TestColdPageCost: a 1000-entry page from the middle of a checkpointed
// store reads only the index pages on its way: the descent to the
// first entry, then each leaf the page spans and the branch it is
// reached through. The index is keyed by seq, so the leaves spanned are
// about 1000 over the entries a page holds.
func TestColdPageCost(t *testing.T) {
	const n, limit = 40_000, 1000
	dir := t.TempDir()
	d, _, err := OpenDurable("hospital", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(coldCorpus(n, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, _, err = OpenDurable("hospital", dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkSeqLayout(t, d)

	accesses := func(read func()) uint64 {
		before := d.PoolStats()
		read()
		after := d.PoolStats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	height := accesses(func() {
		if _, ok, err := d.store.Get(seqKey(n / 2)); err != nil || !ok {
			t.Fatalf("get seq %d: %v %v", n/2, ok, err)
		}
	})
	var page []Entry
	got := accesses(func() {
		if page, _, err = d.Log().Page(n/2, limit); err != nil || len(page) != limit {
			t.Fatalf("page: %d entries, %v", len(page), err)
		}
	})
	// Cuts fill the tree at its right edge, so its leaves are about
	// equally full: a page spans about limit over the entries a leaf
	// holds, at least n over the file's pages, plus the leaves it
	// starts and ends in.
	leaves := uint64(limit)*uint64(d.store.Pages())/n + 2
	if bound := height + 2*leaves; got > bound {
		t.Fatalf("one %d-entry page read %d index pages, want at most %d (height %d, %d leaves)",
			limit, got, bound, height, leaves)
	}
	t.Logf("%d index pages read (height %d, bound %d)", got, height, height+2*leaves)
	snap := d.Log().Snapshot()
	if !bytes.Equal(jsonlBytes(t, page), jsonlBytes(t, snap[n/2:n/2+limit])) {
		t.Fatal("the page is not the log's entries after its cursor")
	}
}

// TestMigrationRejectsMalformedKey: a legacy index holding a key that
// is not a (time, status, seq) key fails the open with an error and
// leaves the store as it was.
func TestMigrationRejectsMalformedKey(t *testing.T) {
	dir := t.TempDir()
	legacyStore(t, dir)
	st, err := storage.OpenStore(filepath.Join(dir, "index.db"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	app := bytes.Clone(st.App())
	// The meta attests the extra key, so only its length is wrong.
	binary.LittleEndian.PutUint64(app[12:], binary.LittleEndian.Uint64(app[12:])+1)
	if err := st.Put([]byte("short"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(app); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if d, _, err := OpenDurable("s", dir, DurableOptions{}); err == nil {
		d.Close()
		t.Fatal("a legacy index with a 5-byte key opened")
	}
}
