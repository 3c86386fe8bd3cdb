package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func tmpStore(t *testing.T, o Options) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.db")
	s, err := OpenStore(path, o)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, bytes.Repeat([]byte{'x'}, i%64))) }

func TestPageBuildSearch(t *testing.T) {
	p := page(make([]byte, PageSize))
	var items []item
	for i := 0; i < 40; i++ {
		items = append(items, item{key: key(i * 2), val: val(i)})
	}
	if !p.build(kindLeaf, items) {
		t.Fatal("build failed")
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.prefixLen() == 0 {
		t.Fatal("expected shared prefix truncation to engage")
	}
	for i := 0; i < 40; i++ {
		idx, found := p.search(key(i * 2))
		if !found || idx != i {
			t.Fatalf("search(%s) = %d,%v", key(i*2), idx, found)
		}
		_, v := p.leafCell(idx)
		if !bytes.Equal(v, val(i)) {
			t.Fatalf("value mismatch at %d", i)
		}
	}
	if _, found := p.search(key(1)); found {
		t.Fatal("found absent key")
	}
}

func TestPageInsertFastAndDelete(t *testing.T) {
	p := page(make([]byte, PageSize))
	if !p.build(kindLeaf, []item{{key: key(0), val: val(0)}, {key: key(4), val: val(4)}}) {
		t.Fatal("build")
	}
	idx, found := p.search(key(2))
	if found {
		t.Fatal("phantom")
	}
	if !p.insertFast(idx, item{key: key(2), val: val(2)}) {
		t.Fatal("insertFast should fit")
	}
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	if p.ncells() != 3 {
		t.Fatalf("ncells = %d", p.ncells())
	}
	p.deleteSlot(1)
	if p.ncells() != 2 {
		t.Fatalf("ncells after delete = %d", p.ncells())
	}
	if _, found := p.search(key(2)); found {
		t.Fatal("deleted key still found")
	}
}

func TestMetaRoundTripAndCorruption(t *testing.T) {
	m := &Meta{Version: 7, Pages: 42, Root: 3, FreeHead: 9, App: []byte("app-blob")}
	b := encodeMeta(m)
	got, ok := decodeMeta(b)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.Version != 7 || got.Pages != 42 || got.Root != 3 || got.FreeHead != 9 || string(got.App) != "app-blob" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	b[40] ^= 0xff
	if _, ok := decodeMeta(b); ok {
		t.Fatal("corrupted meta decoded")
	}
}

func TestTreeInsertGetScan(t *testing.T) {
	s, _ := tmpStore(t, Options{})
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := s.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	if _, ok, _ := s.Get([]byte("zzz")); ok {
		t.Fatal("phantom key")
	}
	var seen int
	var last []byte
	err := s.Scan(nil, nil, func(k, v []byte) bool {
		if last != nil && bytes.Compare(last, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", last, k)
		}
		last = append(last[:0], k...)
		seen++
		return true
	})
	if err != nil || seen != n {
		t.Fatalf("full scan: seen=%d err=%v", seen, err)
	}
	// Bounded range.
	seen = 0
	_ = s.Scan(key(100), key(200), func(k, v []byte) bool { seen++; return true })
	if seen != 100 {
		t.Fatalf("range scan [100,200) saw %d", seen)
	}
	// Early stop.
	seen = 0
	_ = s.Scan(nil, nil, func(k, v []byte) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Fatalf("early stop saw %d", seen)
	}
}

func TestTreeReplaceAndDelete(t *testing.T) {
	s, _ := tmpStore(t, Options{})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Replace every other value.
	for i := 0; i < n; i += 2 {
		if err := s.Put(key(i), []byte("replaced")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 2 {
		v, ok, _ := s.Get(key(i))
		if !ok || string(v) != "replaced" {
			t.Fatalf("replace lost at %d: %q %v", i, v, ok)
		}
	}
	// Delete odd keys.
	for i := 1; i < n; i += 2 {
		ok, err := s.Delete(key(i))
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v,%v", i, ok, err)
		}
	}
	if ok, _ := s.Delete(key(1)); ok {
		t.Fatal("double delete reported present")
	}
	for i := 1; i < n; i += 2 {
		if _, ok, _ := s.Get(key(i)); ok {
			t.Fatalf("deleted key %d still present", i)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	// Delete everything: tree must collapse to empty.
	for i := 0; i < n; i += 2 {
		if ok, err := s.Delete(key(i)); err != nil || !ok {
			t.Fatalf("Delete(%d): %v %v", i, ok, err)
		}
	}
	if s.root.Load() != 0 {
		t.Fatalf("root %d after emptying", s.root.Load())
	}
}

func TestTreeLargeValuesAndLimits(t *testing.T) {
	s, _ := tmpStore(t, Options{})
	big := bytes.Repeat([]byte{'v'}, MaxValueLen)
	for i := 0; i < 20; i++ {
		if err := s.Put(key(i), big); err != nil {
			t.Fatalf("big value %d: %v", i, err)
		}
	}
	v, ok, _ := s.Get(key(7))
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("big value lost")
	}
	if err := s.Put(key(0), bytes.Repeat([]byte{'v'}, MaxValueLen+1)); err == nil {
		t.Fatal("oversized value accepted")
	}
	if err := s.Put(bytes.Repeat([]byte{'k'}, MaxKeyLen+1), nil); err == nil {
		t.Fatal("oversized key accepted")
	}
	if err := s.Put(nil, nil); err == nil {
		t.Fatal("empty key accepted")
	}
	// Long keys with long shared prefixes exercise prefix truncation
	// across splits.
	pre := bytes.Repeat([]byte{'p'}, 400)
	for i := 0; i < 500; i++ {
		k := append(append([]byte(nil), pre...), []byte(fmt.Sprintf("%06d", i))...)
		if err := s.Put(k, val(i)); err != nil {
			t.Fatalf("long key %d: %v", i, err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	s, path := tmpStore(t, Options{})
	const n = 3000
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint([]byte("app-state-1")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if string(s2.App()) != "app-state-1" {
		t.Fatalf("app blob = %q", s2.App())
	}
	for i := 0; i < n; i++ {
		v, ok, err := s2.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("after reopen Get(%d) = %q,%v,%v", i, v, ok, err)
		}
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestUncheckpointedWorkDiscarded: changes after the last checkpoint
// must vanish on reopen (they belong to the WAL layer above).
func TestUncheckpointedWorkDiscarded(t *testing.T) {
	s, path := tmpStore(t, Options{})
	for i := 0; i < 100; i++ {
		_ = s.Put(key(i), val(i))
	}
	if err := s.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		_ = s.Put(key(i), val(i))
	}
	// Force dirty pages out through eviction pressure, then abandon.
	_ = s.pool.flush()
	s.Close()
	s2, err := OpenStore(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 100; i++ {
		if _, ok, _ := s2.Get(key(i)); !ok {
			t.Fatalf("checkpointed key %d lost", i)
		}
	}
	for i := 100; i < 200; i++ {
		if _, ok, _ := s2.Get(key(i)); ok {
			t.Fatalf("uncheckpointed key %d survived", i)
		}
	}
}

// TestFreelistReuse: pages freed by copy-on-write must be recycled
// after a checkpoint instead of growing the file forever.
func TestFreelistReuse(t *testing.T) {
	s, path := tmpStore(t, Options{})
	for i := 0; i < 2000; i++ {
		_ = s.Put(key(i), val(i))
	}
	if err := s.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	grow := func() uint32 { return s.Pages() }
	base := grow()
	// Rewrite the same keys across several checkpoint epochs: the file
	// should stabilize, not grow linearly.
	for epoch := 0; epoch < 10; epoch++ {
		for i := 0; i < 2000; i++ {
			if err := s.Put(key(i), []byte(fmt.Sprintf("epoch-%d-%d", epoch, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(nil); err != nil {
			t.Fatal(err)
		}
	}
	if g := grow(); g > base*3 {
		t.Fatalf("file grew from %d to %d pages despite freelist", base, g)
	}
	s.Close()
	s2, err := OpenStore(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := s2.Get(key(1999))
	if !ok || string(v) != "epoch-9-1999" {
		t.Fatalf("final epoch lost: %q %v", v, ok)
	}
}

// TestBufferPoolEviction runs a working set much larger than the pool
// so every path (miss, eviction, dirty writeback) is exercised.
func TestBufferPoolEviction(t *testing.T) {
	s, _ := tmpStore(t, Options{PoolPages: poolStripes * 2}) // minimum pool
	const n = 3000
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := s.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) under eviction pressure: %v %v", i, ok, err)
		}
	}
	st := s.PoolStats()
	if st.Evictions == 0 || st.Writebacks == 0 {
		t.Fatalf("expected evictions and writebacks, got %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("hit rate %v out of range", st.HitRate())
	}
}

// TestDropCacheKeepsDirtyPages: DropCache empties the pool of clean
// pages only. Pages dirtied since the last checkpoint stay cached and
// reach the file at the next one.
func TestDropCacheKeepsDirtyPages(t *testing.T) {
	s, path := tmpStore(t, Options{})
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	frames := func() int {
		total := 0
		for i := range s.pool.stripes {
			total += s.pool.stripes[i].frames
		}
		return total
	}
	if err := s.Scan(nil, nil, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if frames() == 0 {
		t.Fatal("scan cached no pages")
	}
	s.DropCache()
	if got := frames(); got != 0 {
		t.Fatalf("%d clean pages cached after DropCache", got)
	}
	// Dirty a page, drop the cache, and checkpoint: the update must
	// survive a reopen.
	if err := s.Put(key(7), []byte("updated")); err != nil {
		t.Fatal(err)
	}
	s.DropCache()
	if frames() == 0 {
		t.Fatal("DropCache dropped dirty pages")
	}
	if err := s.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenStore(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < n; i++ {
		want := val(i)
		if i == 7 {
			want = []byte("updated")
		}
		if v, ok, err := s2.Get(key(i)); err != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("Get(%d) after DropCache and reopen: %q %v %v", i, v, ok, err)
		}
	}
}

// TestTornMetaFallsBack simulates a crash inside the meta write of a
// checkpoint: the previous checkpoint must come back intact.
func TestTornMetaFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.db")
	s, err := OpenStore(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_ = s.Put(key(i), val(i))
	}
	if err := s.Checkpoint([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the slot the NEXT checkpoint would have written, as if
	// the meta write tore mid-page.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slot := ((1 + 1) % 2) * metaSlotSize // version 2 -> slot 0
	for i := 0; i < 64; i++ {
		raw[slot+i] = 0xde
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path, Options{})
	if err != nil {
		t.Fatalf("reopen with torn meta slot: %v", err)
	}
	defer s2.Close()
	if string(s2.App()) != "v1" {
		t.Fatalf("app = %q, want v1", s2.App())
	}
	for i := 0; i < 500; i++ {
		if _, ok, _ := s2.Get(key(i)); !ok {
			t.Fatalf("key %d lost after torn meta", i)
		}
	}
}

// TestCrashDuringCheckpointDifferential is the randomized torn-write
// harness: kill the file at a random write offset during a checkpoint,
// reopen, and require exactly the previous durable state.
func TestCrashDuringCheckpointDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		func() {
			dir := t.TempDir()
			path := filepath.Join(dir, "data.db")
			s, err := OpenStore(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				_ = s.Put(key(i), val(i))
			}
			if err := s.Checkpoint([]byte("durable")); err != nil {
				t.Fatal(err)
			}
			s.Close()

			// Reopen behind a failpoint, mutate, and crash somewhere
			// inside the second checkpoint's write stream.
			budget := int64(rng.Intn(64 * 1024))
			var ff *FailFile
			s, err = OpenStore(path, Options{OpenFile: func(p string) (File, error) {
				inner, err := OpenOSFile(p)
				if err != nil {
					return nil, err
				}
				ff = NewFailFile(inner, budget)
				return ff, nil
			}})
			if err != nil {
				// The failpoint can trigger during open bookkeeping;
				// that is still a valid crash point.
				s = nil
			}
			if s != nil {
				for i := 200; i < 600; i++ {
					if err := s.Put(key(i), []byte("mutated")); err != nil {
						break // crashed mid-write: fine
					}
				}
				_ = s.Checkpoint([]byte("would-be-next"))
				s.Close()
			}

			s2, err := OpenStore(path, Options{})
			if err != nil {
				t.Fatalf("trial %d (budget %d): reopen failed: %v", trial, budget, err)
			}
			defer s2.Close()
			if err := s2.Check(); err != nil {
				t.Fatalf("trial %d: structural damage: %v", trial, err)
			}
			app := string(s2.App())
			switch app {
			case "durable":
				for i := 0; i < 300; i++ {
					v, ok, _ := s2.Get(key(i))
					if !ok || !bytes.Equal(v, val(i)) {
						t.Fatalf("trial %d: durable state damaged at key %d", trial, i)
					}
				}
				for i := 300; i < 600; i++ {
					if _, ok, _ := s2.Get(key(i)); ok {
						t.Fatalf("trial %d: uncommitted key %d leaked into durable state", trial, i)
					}
				}
			case "would-be-next":
				// Checkpoint completed before the budget ran out.
				for i := 200; i < 600; i++ {
					v, ok, _ := s2.Get(key(i))
					if !ok || string(v) != "mutated" {
						t.Fatalf("trial %d: committed state damaged at key %d", trial, i)
					}
				}
			default:
				t.Fatalf("trial %d: impossible app blob %q", trial, app)
			}
		}()
	}
}

// TestCheckpointFreelistChainBoundary pins the chain-sizing math at
// the awkward totals just past a multiple of idsPerFreelistPage,
// where an off-by-len(chain) in the capacity formula under-provisions
// the chain and writeFreelist would silently drop — permanently leak
// — the overflow. Every queued id must survive the round-trip.
func TestCheckpointFreelistChainBoundary(t *testing.T) {
	per := idsPerFreelistPage
	for _, total := range []int{1, per - 1, per, per + 1, per + 2, 2*per + 1} {
		s, path := tmpStore(t, Options{NoSync: true})
		// Fabricate a mass free: grow the file and queue every new page
		// for post-checkpoint reuse, exactly what a bulk delete leaves.
		fabricated := make(map[uint32]bool, total)
		s.mu.Lock()
		for i := 0; i < total; i++ {
			id := s.pager.grow()
			fabricated[id] = true
			s.pendingFree = append(s.pendingFree, id)
		}
		s.mu.Unlock()
		if err := s.Checkpoint(nil); err != nil {
			t.Fatalf("total=%d: checkpoint: %v", total, err)
		}
		s.Close()
		s2, err := OpenStore(path, Options{NoSync: true})
		if err != nil {
			t.Fatalf("total=%d: reopen: %v", total, err)
		}
		// Everything fabricated must come back as a free id (or as a
		// chain page of the durable meta, itself free under the next
		// checkpoint); anything missing left the allocator for good.
		seen := 0
		s2.mu.Lock()
		for _, id := range s2.free {
			if fabricated[id] {
				seen++
			}
		}
		for _, id := range s2.chain {
			if fabricated[id] {
				seen++
			}
		}
		s2.mu.Unlock()
		s2.Close()
		if seen != total {
			t.Fatalf("total=%d: only %d of %d freed pages survived the checkpoint (leak)", total, seen, total)
		}
	}
}

// NewFailFile wraps inner with its own private budget.
func NewFailFile(inner File, writeBudget int64) *FailFile {
	return &FailFile{inner: inner, b: NewFailBudget(writeBudget)}
}

// Check walks the whole tree validating page invariants and global key
// order; tests and the recovery path use it as a structural fsck.
func (s *Store) Check() error {
	root := s.root.Load()
	if root == 0 {
		return nil
	}
	var last []byte
	var walk func(id uint32, lower []byte) error
	walk = func(id uint32, lower []byte) error {
		f, err := s.pool.get(id, false)
		if err != nil {
			return err
		}
		f.latch.RLock()
		pg := page(f.buf)
		if err := pg.validate(); err != nil {
			f.latch.RUnlock()
			s.pool.put(f, false)
			return fmt.Errorf("page %d: %w", id, err)
		}
		kind := pg.kind()
		var children []item
		if kind == kindBranch {
			children = pg.items()
		} else if kind == kindLeaf {
			for i := 0; i < pg.ncells(); i++ {
				k := pg.keyAt(i)
				if lower != nil && bytes.Compare(k, lower) < 0 {
					f.latch.RUnlock()
					s.pool.put(f, false)
					return fmt.Errorf("page %d: key below separator bound", id)
				}
				if last != nil && bytes.Compare(last, k) >= 0 {
					f.latch.RUnlock()
					s.pool.put(f, false)
					return fmt.Errorf("page %d: global key order violated", id)
				}
				last = k
			}
		} else {
			f.latch.RUnlock()
			s.pool.put(f, false)
			return fmt.Errorf("page %d: unexpected kind %d in tree", id, kind)
		}
		f.latch.RUnlock()
		s.pool.put(f, false)
		// Child 0 may hold keys below its own separator (lookups clamp
		// to it), so it inherits the parent's bound instead.
		for i, c := range children {
			b := lower
			if i > 0 {
				b = c.key
			}
			if err := walk(c.child, b); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, nil)
}

// validate sanity-checks structural invariants; used by tests and the
// recovery path to reject torn pages that slipped past the meta CRC.
func (p page) validate() error {
	if len(p) != PageSize {
		return fmt.Errorf("storage: page length %d", len(p))
	}
	k := p.kind()
	if k != kindLeaf && k != kindBranch && k != kindFreelist && k != kindFree {
		return fmt.Errorf("storage: bad page kind %d", k)
	}
	if k == kindFree || k == kindFreelist {
		return nil
	}
	n := p.ncells()
	if pageHeaderSize+2*n > p.cellsBegin() || p.cellsBegin() > PageSize-p.prefixLen() {
		return fmt.Errorf("storage: page layout out of bounds (ncells=%d cellsBegin=%d prefix=%d)", n, p.cellsBegin(), p.prefixLen())
	}
	for i := 0; i < n; i++ {
		off := p.slotOffset(i)
		if off < p.cellsBegin() || off >= PageSize-p.prefixLen() {
			return fmt.Errorf("storage: slot %d offset %d out of cell area", i, off)
		}
	}
	for i := 1; i < n; i++ {
		if bytes.Compare(p.keyAt(i-1), p.keyAt(i)) >= 0 {
			return fmt.Errorf("storage: slots %d,%d out of order", i-1, i)
		}
	}
	return nil
}
