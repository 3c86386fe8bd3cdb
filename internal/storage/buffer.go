package storage

import (
	"sync"
	"sync/atomic"
)

// Buffer pool: a fixed budget of page frames cached by page id. The
// page table is lock-striped — each stripe owns a shard of the id
// space with its own mutex, LRU list and frame budget — so concurrent
// readers of distinct pages contend only per stripe. Frames carry pin
// counts (a pinned frame is never evicted; pin/unpin bracket every
// page access) and a per-frame RWMutex latch serializing byte-level
// access: tree writers mutate page bytes under the write latch while
// concurrent readers hold read latches, which is what makes reads
// during splits safe.
//
// Eviction is LRU per stripe: the least recently used unpinned frame
// is written back when dirty (safe under the copy-on-write protocol —
// a dirty frame is never part of the last durable checkpoint, so
// writing it early can only touch pages the durable meta does not
// reference) and dropped. The per-stripe frame budget is soft: when
// every resident frame is pinned by concurrent callers, a miss admits
// its frame over budget instead of failing, and later misses evict
// back down once pins release.

// frame is one cached page.
type frame struct {
	id    uint32
	buf   []byte // PageSize bytes
	pins  atomic.Int32
	dirty bool // guarded by the owning stripe's mutex

	latch sync.RWMutex // guards buf contents

	// LRU list links, guarded by the stripe mutex.
	prev, next *frame
}

// poolStripe is one shard of the page table.
type poolStripe struct {
	mu     sync.Mutex
	table  map[uint32]*frame
	head   *frame // most recently used
	tail   *frame // least recently used
	frames int
	cap    int
}

// Pool is the buffer pool over one pager.
type Pool struct {
	pager   *pager
	stripes []poolStripe

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	writeback atomic.Uint64
}

// PoolStats is a point-in-time snapshot of pool counters.
type PoolStats struct {
	Hits, Misses, Evictions, Writebacks uint64
}

// HitRate returns hits / (hits + misses), 1 for an untouched pool.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

const defaultPoolPages = 1024 // 4 MiB
const poolStripes = 16

func newPool(pg *pager, capPages int) *Pool {
	if capPages <= 0 {
		capPages = defaultPoolPages
	}
	if capPages < poolStripes*2 {
		capPages = poolStripes * 2
	}
	p := &Pool{pager: pg, stripes: make([]poolStripe, poolStripes)}
	per := capPages / poolStripes
	for i := range p.stripes {
		p.stripes[i].table = make(map[uint32]*frame)
		p.stripes[i].cap = per
	}
	return p
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		Writebacks: p.writeback.Load(),
	}
}

func (p *Pool) stripe(id uint32) *poolStripe {
	return &p.stripes[id%poolStripes]
}

// lruPush moves f to the MRU end; stripe mutex held.
func (s *poolStripe) lruPush(f *frame) {
	if s.head == f {
		return
	}
	s.lruUnlink(f)
	f.next = s.head
	f.prev = nil
	if s.head != nil {
		s.head.prev = f
	}
	s.head = f
	if s.tail == nil {
		s.tail = f
	}
}

func (s *poolStripe) lruUnlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	}
	if s.head == f {
		s.head = f.next
	}
	if s.tail == f {
		s.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// get returns the frame for page id, pinned. The caller must release
// it with put. A new frame reads the page from the pager file; a
// fresh=true frame skips the read (the page was just allocated).
func (p *Pool) get(id uint32, fresh bool) (*frame, error) {
	s := p.stripe(id)
	s.mu.Lock()
	if f, ok := s.table[id]; ok {
		f.pins.Add(1)
		s.lruPush(f)
		s.mu.Unlock()
		p.hits.Add(1)
		return f, nil
	}
	p.misses.Add(1)
	// Evict down to budget before inserting. The cap is a soft
	// budget: when every resident frame is pinned (a concurrent
	// working set larger than the stripe), the new frame is admitted
	// over budget rather than failing the read, and later misses
	// evict back down once pins release.
	for s.frames >= s.cap {
		evicted, err := p.evictLocked(s)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if !evicted {
			break
		}
	}
	f := &frame{id: id, buf: make([]byte, PageSize)}
	f.pins.Add(1)
	if !fresh {
		// Read under the stripe mutex: simple and safe. Stripe count
		// keeps the serialization local; a miss storm on one stripe
		// degrades to sequential I/O, which is what a cold scan is
		// anyway.
		if err := p.pager.readPage(id, f.buf); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	s.table[id] = f
	s.frames++
	s.lruPush(f)
	s.mu.Unlock()
	return f, nil
}

// evictLocked drops the least recently used unpinned frame, writing
// it back first when dirty. Returns false when every resident frame
// is pinned and nothing could be evicted. Stripe mutex held.
func (p *Pool) evictLocked(s *poolStripe) (bool, error) {
	for f := s.tail; f != nil; f = f.prev {
		if f.pins.Load() != 0 {
			continue
		}
		if f.dirty {
			// The frame is unpinned and the stripe mutex excludes new
			// pins, so no writer holds the latch; take it to order
			// against a release racing the final byte store.
			f.latch.RLock()
			err := p.pager.writePage(f.id, f.buf)
			f.latch.RUnlock()
			if err != nil {
				return false, err
			}
			f.dirty = false
			p.writeback.Add(1)
		}
		s.lruUnlink(f)
		delete(s.table, f.id)
		s.frames--
		p.evictions.Add(1)
		return true, nil
	}
	return false, nil
}

// put unpins a frame; dirty records that the caller mutated the bytes.
func (p *Pool) put(f *frame, dirty bool) {
	if dirty {
		s := p.stripe(f.id)
		s.mu.Lock()
		f.dirty = true
		s.mu.Unlock()
	}
	f.pins.Add(-1)
}

// drop removes a page from the cache without writeback (the page was
// freed); no-op when absent or pinned.
func (p *Pool) drop(id uint32) {
	s := p.stripe(id)
	s.mu.Lock()
	if f, ok := s.table[id]; ok && f.pins.Load() == 0 {
		s.lruUnlink(f)
		delete(s.table, id)
		s.frames--
	}
	s.mu.Unlock()
}

// flush writes every dirty frame back to the pager file. Called by
// Checkpoint with the store's writer lock held, so no new dirtying
// writer can race; pinned readers are harmless.
func (p *Pool) flush() error {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for _, f := range s.table {
			if !f.dirty {
				continue
			}
			f.latch.RLock()
			err := p.pager.writePage(f.id, f.buf)
			f.latch.RUnlock()
			if err != nil {
				s.mu.Unlock()
				return err
			}
			f.dirty = false
			p.writeback.Add(1)
		}
		s.mu.Unlock()
	}
	return nil
}

// dropClean evicts every unpinned clean frame. Dirty frames stay
// until a checkpoint or an eviction writes them back.
func (p *Pool) dropClean() {
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		for id, f := range s.table {
			if f.dirty || f.pins.Load() != 0 {
				continue
			}
			s.lruUnlink(f)
			delete(s.table, id)
			s.frames--
		}
		s.mu.Unlock()
	}
}
