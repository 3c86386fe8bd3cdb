package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Options tunes an opened Store.
type Options struct {
	// PoolPages is the buffer-pool budget in pages (default 1024 = 4 MiB).
	PoolPages int
	// OpenFile opens the backing file; defaults to OpenOSFile. Crash
	// tests substitute failpoint wrappers here.
	OpenFile OpenFileFunc
	// NoSync skips fsyncs on checkpoint (benchmarks comparing the
	// fsync cost; never used by production callers).
	NoSync bool
}

// Store is one storage file: pager + buffer pool + a single B+tree,
// with shadow-paging checkpoints. All mutation (tree writes,
// checkpoints) is serialized by the writer mutex; reads are
// concurrent, pinning and read-latching frames as they go.
type Store struct {
	mu sync.Mutex // writer lock: tree mutation, allocation, checkpoint

	// ckpt serializes readers against checkpoints: Get/Scan hold it
	// shared for their whole descent, Checkpoint exclusively. Pages a
	// checkpoint recycles into the allocator were freed before it ran,
	// so excluding in-flight readers guarantees no reader still holds a
	// page id the next epoch may rewrite. (Writers do not take it:
	// within an epoch, copy-on-write alone protects readers from
	// inserts; deletes recycle fresh pages and need external
	// serialization, which every caller of Delete/Clear provides.)
	ckpt sync.RWMutex

	f      File
	pager  *pager
	pool   *Pool
	noSync bool

	root atomic.Uint32 // current tree root (0 = empty); lock-free readers

	// Checkpoint bookkeeping, guarded by mu.
	ckptVer     uint64
	app         []byte
	free        []uint32        // free at the last checkpoint, still unused
	chain       []uint32        // freelist chain pages of the last durable meta
	fresh       map[uint32]bool // allocated since the last checkpoint: mutable in place
	pendingFree []uint32        // unreferenced by the working tree; reusable after checkpoint
}

// OpenStore opens (creating if needed) the store file at path.
func OpenStore(path string, o Options) (*Store, error) {
	open := o.OpenFile
	if open == nil {
		open = OpenOSFile
	}
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	pg, meta, err := openPager(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	free, chain, err := pg.readFreelist(meta.FreeHead)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: freelist: %w", err)
	}
	s := &Store{
		f:       f,
		pager:   pg,
		pool:    newPool(pg, o.PoolPages),
		noSync:  o.NoSync,
		ckptVer: meta.Version,
		app:     meta.App,
		free:    free,
		chain:   chain,
		fresh:   make(map[uint32]bool),
	}
	s.root.Store(meta.Root)
	return s, nil
}

// App returns the application blob of the last checkpoint.
func (s *Store) App() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.app...)
}

// Version returns the checkpoint counter.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptVer
}

// DropCache evicts the buffer pool's clean pages, releasing the memory
// a one-off full read, such as a recovery scan, filled it with. Dirty
// pages stay cached until a checkpoint writes them.
func (s *Store) DropCache() { s.pool.dropClean() }

// PoolStats exposes the buffer-pool counters.
func (s *Store) PoolStats() PoolStats { return s.pool.Stats() }

// Pages returns the allocated page count of the file.
func (s *Store) Pages() uint32 {
	return s.pager.pages.Load()
}

// allocFrame allocates a page (free list first, then file growth) and
// returns it pinned and initialized to kind. Writer lock held.
func (s *Store) allocFrame(kind byte) (uint32, *frame, error) {
	var id uint32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.pager.grow()
	}
	f, err := s.pool.get(id, true)
	if err != nil {
		return 0, nil, err
	}
	f.latch.Lock()
	initPage(f.buf, kind)
	f.latch.Unlock()
	s.pool.put(f, true) // mark dirty; keep our own pin below
	f.pins.Add(1)
	s.fresh[id] = true
	return id, f, nil
}

// cowFrame makes the page writable under the shadow-paging rule:
// pages allocated since the last checkpoint mutate in place, anything
// older is copied to a fresh page and the old id queued for post-
// checkpoint freeing. The input frame must be pinned; on copy it is
// unpinned and the new pinned frame returned. Writer lock held.
func (s *Store) cowFrame(id uint32, f *frame) (uint32, *frame, error) {
	if s.fresh[id] {
		return id, f, nil
	}
	nid, nf, err := s.allocFrame(f.buf[0])
	if err != nil {
		return 0, nil, err
	}
	f.latch.RLock()
	nf.latch.Lock()
	copy(nf.buf, f.buf)
	nf.latch.Unlock()
	f.latch.RUnlock()
	s.pool.put(f, false)
	s.pool.put(nf, true)
	nf.pins.Add(1)
	s.pendingFree = append(s.pendingFree, id)
	return nid, nf, nil
}

// freeTreePage queues a page unlinked from the working tree. Fresh
// pages return to the allocator immediately (nothing durable ever
// referenced them); checkpointed pages wait for the next checkpoint.
func (s *Store) freeTreePage(id uint32) {
	s.pool.drop(id)
	if s.fresh[id] {
		delete(s.fresh, id)
		s.free = append(s.free, id)
		return
	}
	s.pendingFree = append(s.pendingFree, id)
}

// Checkpoint durably commits the working tree and the application
// blob: chain the next free list, flush every dirty frame, fsync the
// data, then swap the CRC'd meta slot (the atomic commit point).
// After it returns, Open of the same file reproduces exactly this
// tree and app blob even if the process dies immediately after.
func (s *Store) Checkpoint(app []byte) error {
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(app)
}

func (s *Store) checkpointLocked(app []byte) error {
	if len(app) > metaAppMax {
		return fmt.Errorf("storage: app blob %d bytes exceeds %d", len(app), metaAppMax)
	}
	// The ids free under the NEXT meta: still-unused free pages, the
	// old freelist chain, and everything copy-on-write unreferenced.
	// Chain pages must come from s.free only: those are free under
	// both the old and the new meta, so a torn checkpoint that
	// overwrote them loses nothing.
	avail := append([]uint32(nil), s.free...)
	ids := append(append([]uint32(nil), s.chain...), s.pendingFree...)
	var chain []uint32
	for {
		// The chain must hold every id that will be written: the queued
		// ids plus whatever remains of avail once chain pages are taken
		// from it. Sizing against anything less silently drops the
		// overflow in writeFreelist and leaks those pages forever.
		total := len(avail) + len(ids)
		k := (total + idsPerFreelistPage - 1) / idsPerFreelistPage
		if k <= len(chain) {
			break
		}
		var id uint32
		if n := len(avail); n > 0 {
			id = avail[n-1]
			avail = avail[:n-1]
		} else {
			id = s.pager.grow()
		}
		chain = append(chain, id)
	}
	ids = append(ids, avail...)
	head, err := s.pager.writeFreelist(ids, chain)
	if err != nil {
		return err
	}
	if err := s.pool.flush(); err != nil {
		return err
	}
	if !s.noSync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	m := &Meta{
		Version:  s.ckptVer + 1,
		Pages:    s.pager.pages.Load(),
		Root:     s.root.Load(),
		FreeHead: head,
		App:      app,
	}
	if err := s.pager.writeMeta(m, int(m.Version%2)); err != nil {
		return err
	}
	if !s.noSync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.ckptVer = m.Version
	s.app = append([]byte(nil), app...)
	s.free = ids
	s.chain = chain
	s.pendingFree = s.pendingFree[:0]
	clear(s.fresh)
	return nil
}

// Close flushes nothing: callers checkpoint explicitly before closing
// when they want the working tree durable. It releases the file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
