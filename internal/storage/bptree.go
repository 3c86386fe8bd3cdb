package storage

import (
	"bytes"
	"fmt"
)

// The disk B+tree. One tree per Store, rooted at the meta record.
// Branch cells hold (separator, child) pairs where separator_i is a
// lower bound for every key in child_i's subtree: lookups descend into
// the last child whose separator is <= the key (clamped to child 0).
// Lower-bound — rather than exact-minimum — semantics mean deletes
// never have to rewrite parent separators.
//
// Writers run one at a time under Store.mu and follow the shadow-
// paging rule: every page on the descent path is made writable with
// cowFrame before its child pointer or cells are touched. Page splits
// are byte-balanced: overflowing items are greedily packed into as
// many sibling pages as needed (sized with a zero-prefix estimate,
// which only overestimates, so a packed group always builds), and the
// new separators bubble up, possibly splitting ancestors and growing a
// new root.
//
// Readers never take Store.mu. They load the root atomically and
// descend pin-by-pin under read latches. This is safe against a
// concurrent inserting writer: committed pages are never mutated
// (copy-on-write) and fresh pages are only rebuilt under their write
// latch, so a reader sees each page either before or after a step —
// a racing view, exactly the semantics of reading a shared map under
// its own lock. Deletes may recycle fresh pages within an epoch, so
// callers that delete concurrently with reads must serialize
// externally (minidb's table lock and the audit store's mutex both
// do).

// Key and value bounds. Keys stay small so branch pages keep useful
// fanout; values are bounded so any single cell fits one page — the
// engine has no overflow pages.
const (
	MaxKeyLen   = 512
	MaxValueLen = 3500
)

// pageFillTarget is the byte budget one split group aims for (~75% of
// a page), leaving headroom for later in-place inserts.
const pageFillTarget = (PageSize - pageHeaderSize) * 3 / 4

type pathElem struct {
	id  uint32
	f   *frame
	idx int // child slot taken during the descent
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	id := s.root.Load()
	if id == 0 {
		return nil, false, nil
	}
	for {
		f, err := s.pool.get(id, false)
		if err != nil {
			return nil, false, err
		}
		f.latch.RLock()
		pg := page(f.buf)
		switch pg.kind() {
		case kindLeaf:
			idx, found := pg.search(key)
			if !found {
				f.latch.RUnlock()
				s.pool.put(f, false)
				return nil, false, nil
			}
			_, v := pg.leafCell(idx)
			out := append([]byte(nil), v...)
			f.latch.RUnlock()
			s.pool.put(f, false)
			return out, true, nil
		case kindBranch:
			if pg.ncells() == 0 {
				f.latch.RUnlock()
				s.pool.put(f, false)
				return nil, false, nil
			}
			idx, found := pg.search(key)
			if !found && idx > 0 {
				idx--
			}
			_, child := pg.branchCell(idx)
			f.latch.RUnlock()
			s.pool.put(f, false)
			id = child
		default:
			k := pg.kind()
			f.latch.RUnlock()
			s.pool.put(f, false)
			return nil, false, fmt.Errorf("storage: page %d: unexpected kind %d on lookup path", id, k)
		}
	}
}

// Put inserts or replaces key -> val.
func (s *Store) Put(key, val []byte) error {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return fmt.Errorf("storage: key length %d outside (0, %d]", len(key), MaxKeyLen)
	}
	if len(val) > MaxValueLen {
		return fmt.Errorf("storage: value length %d exceeds %d", len(val), MaxValueLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	root := s.root.Load()
	if root == 0 {
		id, f, err := s.allocFrame(kindLeaf)
		if err != nil {
			return err
		}
		f.latch.Lock()
		page(f.buf).build(kindLeaf, []item{{key: key, val: val}})
		f.latch.Unlock()
		s.pool.put(f, true)
		s.root.Store(id)
		return nil
	}

	id, f, path, err := s.descendForWrite(root, key)
	if err != nil {
		return err
	}
	defer func() {
		s.pool.put(f, true)
		for i := range path {
			s.pool.put(path[i].f, true)
		}
	}()

	f.latch.Lock()
	pg := page(f.buf)
	idx, found := pg.search(key)
	if found {
		pg.deleteSlot(idx)
	}
	it := item{key: key, val: val}
	if pg.insertFast(idx, it) {
		f.latch.Unlock()
		return nil
	}
	items := insertItemAt(pg.items(), idx, it)
	if pg.build(kindLeaf, items) {
		f.latch.Unlock()
		return nil
	}
	f.latch.Unlock()
	return s.splitPage(path, id, f, kindLeaf, items)
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	root := s.root.Load()
	if root == 0 {
		return false, nil
	}
	id, f, path, err := s.descendForWrite(root, key)
	if err != nil {
		return false, err
	}
	f.latch.Lock()
	pg := page(f.buf)
	idx, found := pg.search(key)
	if !found {
		f.latch.Unlock()
		s.pool.put(f, true)
		for i := range path {
			s.pool.put(path[i].f, true)
		}
		return false, nil
	}
	pg.deleteSlot(idx)
	empty := pg.ncells() == 0
	f.latch.Unlock()
	s.pool.put(f, true)
	if empty {
		s.removeEmpty(path, id)
	}
	for i := range path {
		s.pool.put(path[i].f, true)
	}
	if err := s.collapseRoot(); err != nil {
		return true, err
	}
	return true, nil
}

// descendForWrite walks from root to the leaf owning key, copy-on-
// writing every visited page and patching parent child pointers. It
// returns the pinned writable leaf and the pinned ancestor path.
func (s *Store) descendForWrite(root uint32, key []byte) (uint32, *frame, []pathElem, error) {
	f, err := s.pool.get(root, false)
	if err != nil {
		return 0, nil, nil, err
	}
	id, f, err := s.cowFrame(root, f)
	if err != nil {
		return 0, nil, nil, err
	}
	if id != root {
		s.root.Store(id)
	}
	var path []pathElem
	fail := func(err error) (uint32, *frame, []pathElem, error) {
		s.pool.put(f, true)
		for i := range path {
			s.pool.put(path[i].f, true)
		}
		return 0, nil, nil, err
	}
	for {
		f.latch.RLock()
		pg := page(f.buf)
		if pg.kind() == kindLeaf {
			f.latch.RUnlock()
			return id, f, path, nil
		}
		if pg.kind() != kindBranch || pg.ncells() == 0 {
			k, n := pg.kind(), pg.ncells()
			f.latch.RUnlock()
			return fail(fmt.Errorf("storage: page %d: unexpected kind %d (ncells=%d) on write path", id, k, n))
		}
		idx, found := pg.search(key)
		if !found && idx > 0 {
			idx--
		}
		_, child := pg.branchCell(idx)
		f.latch.RUnlock()

		cf, err := s.pool.get(child, false)
		if err != nil {
			return fail(err)
		}
		nid, cf, err := s.cowFrame(child, cf)
		if err != nil {
			return fail(err)
		}
		if nid != child {
			f.latch.Lock()
			pg.setBranchChild(idx, nid)
			f.latch.Unlock()
		}
		path = append(path, pathElem{id: id, f: f, idx: idx})
		id, f = nid, cf
	}
}

// splitPage distributes items (which overflow the page) across the
// page plus freshly allocated right siblings, then inserts the new
// separators into the parent level. The frame stays pinned by the
// caller.
func (s *Store) splitPage(path []pathElem, id uint32, f *frame, kind byte, items []item) error {
	groups := splitItems(kind, items)
	f.latch.Lock()
	if !page(f.buf).build(kind, groups[0]) {
		f.latch.Unlock()
		return fmt.Errorf("storage: page %d: split group 0 does not fit (%d items)", id, len(groups[0]))
	}
	f.latch.Unlock()
	seps := make([]item, 0, len(groups)-1)
	for _, g := range groups[1:] {
		nid, nf, err := s.allocFrame(kind)
		if err != nil {
			return err
		}
		nf.latch.Lock()
		ok := page(nf.buf).build(kind, g)
		nf.latch.Unlock()
		s.pool.put(nf, true)
		if !ok {
			return fmt.Errorf("storage: page %d: split group does not fit (%d items)", nid, len(g))
		}
		seps = append(seps, item{key: g[0].key, child: nid})
	}
	return s.insertSeparators(path, len(path)-1, groups[0][0].key, seps)
}

// insertSeparators records a split at path[level]: the child at the
// descent slot was rebuilt to hold only keys >= leftKey, and seps are
// its new right siblings. A negative level grows a new root.
//
// The child's existing separator may be stale-low (child 0 absorbs
// keys below its separator via descent clamping), in which case the
// new separators would key-sort BEFORE it and wreck the child
// ordering. So the child's separator is always refreshed to leftKey —
// the true minimum of what remained — by deleting its slot and
// re-inserting it through the same flow as the new separators, after
// which plain search placement is correct for all of them.
func (s *Store) insertSeparators(path []pathElem, level int, leftKey []byte, seps []item) error {
	if level < 0 {
		old := s.root.Load()
		items := append([]item{{key: leftKey, child: old}}, seps...)
		rid, rf, err := s.allocFrame(kindBranch)
		if err != nil {
			return err
		}
		rf.latch.Lock()
		ok := page(rf.buf).build(kindBranch, items)
		rf.latch.Unlock()
		s.root.Store(rid)
		if ok {
			s.pool.put(rf, true)
			return nil
		}
		// Even the new root overflows (huge separator fan-in): split it
		// and grow another level.
		err = s.splitPage(nil, rid, rf, kindBranch, items)
		s.pool.put(rf, true)
		return err
	}

	pe := path[level]
	pe.f.latch.Lock()
	pg := page(pe.f.buf)
	_, child := pg.branchCell(pe.idx)
	pg.deleteSlot(pe.idx)
	all := make([]item, 0, len(seps)+1)
	all = append(all, item{key: leftKey, child: child})
	all = append(all, seps...)
	inserted := 0
	for _, sp := range all {
		idx, _ := pg.search(sp.key)
		if !pg.insertFast(idx, sp) {
			break
		}
		inserted++
	}
	if inserted == len(all) {
		pe.f.latch.Unlock()
		return nil
	}
	items := pg.items()
	for _, sp := range all[inserted:] {
		items = insertItemSorted(items, sp)
	}
	if pg.build(kindBranch, items) {
		pe.f.latch.Unlock()
		return nil
	}
	pe.f.latch.Unlock()
	return s.splitPage(path[:level], pe.id, pe.f, kindBranch, items)
}

// removeEmpty unlinks an emptied page from its ancestors, cascading
// as far as the emptiness propagates.
func (s *Store) removeEmpty(path []pathElem, childID uint32) {
	s.freeTreePage(childID)
	for level := len(path) - 1; level >= 0; level-- {
		pe := path[level]
		pe.f.latch.Lock()
		pg := page(pe.f.buf)
		pg.deleteSlot(pe.idx)
		n := pg.ncells()
		pe.f.latch.Unlock()
		if n > 0 {
			return
		}
		s.freeTreePage(pe.id)
	}
	s.root.Store(0)
}

// collapseRoot shrinks the tree height while the root is a one-child
// branch.
func (s *Store) collapseRoot() error {
	for {
		id := s.root.Load()
		if id == 0 {
			return nil
		}
		f, err := s.pool.get(id, false)
		if err != nil {
			return err
		}
		f.latch.RLock()
		pg := page(f.buf)
		if pg.kind() != kindBranch || pg.ncells() != 1 {
			f.latch.RUnlock()
			s.pool.put(f, false)
			return nil
		}
		_, child := pg.branchCell(0)
		f.latch.RUnlock()
		s.pool.put(f, false)
		s.root.Store(child)
		s.freeTreePage(id)
	}
}

// Scan calls fn for every key in [from, to) in key order (nil from =
// start of tree, nil to = end). fn returns false to stop early. The key
// and value slices live in buffers the scan owns and reuses: they stay
// valid only until fn returns, so a caller that keeps either must copy
// it. fn must not mutate the tree or re-enter the store (the scan holds
// the shared checkpoint lock for its whole run).
func (s *Store) Scan(from, to []byte, fn func(key, val []byte) bool) error {
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	root := s.root.Load()
	if root == 0 {
		return nil
	}
	type pos struct {
		id  uint32
		idx int
	}
	var stack []pos
	leaf := make(page, PageSize) // the current leaf, copied out of the pool
	var key []byte
	id := root
	cur := from
	for {
		// Descend from id to a leaf, steering by cur (nil = leftmost).
		for {
			f, err := s.pool.get(id, false)
			if err != nil {
				return err
			}
			f.latch.RLock()
			pg := page(f.buf)
			if pg.kind() == kindLeaf {
				// Copy the leaf, then emit from the copy outside the
				// latch so fn never runs with a page locked.
				copy(leaf, pg)
				f.latch.RUnlock()
				s.pool.put(f, false)
				idx0, end := 0, leaf.ncells()
				if cur != nil {
					idx0, _ = leaf.search(cur)
				}
				if to != nil {
					end, _ = leaf.search(to)
				}
				pre := leaf.prefix()
				for i := idx0; i < end; i++ {
					suf, v := leaf.leafCell(i)
					key = append(append(key[:0], pre...), suf...)
					if !fn(key, v) {
						return nil
					}
				}
				if end < leaf.ncells() {
					return nil // the rest of the leaf is at or past to
				}
				cur = nil
				break
			}
			if pg.kind() != kindBranch || pg.ncells() == 0 {
				f.latch.RUnlock()
				s.pool.put(f, false)
				return nil
			}
			idx := 0
			if cur != nil {
				var found bool
				idx, found = pg.search(cur)
				if !found && idx > 0 {
					idx--
				}
				if idx >= pg.ncells() {
					idx = pg.ncells() - 1
				}
			}
			_, child := pg.branchCell(idx)
			f.latch.RUnlock()
			s.pool.put(f, false)
			stack = append(stack, pos{id: id, idx: idx})
			id = child
		}
		// Advance to the next leaf via the branch stack.
		advanced := false
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			f, err := s.pool.get(top.id, false)
			if err != nil {
				return err
			}
			f.latch.RLock()
			pg := page(f.buf)
			if pg.kind() == kindBranch && top.idx+1 < pg.ncells() {
				top.idx++
				_, child := pg.branchCell(top.idx)
				f.latch.RUnlock()
				s.pool.put(f, false)
				id = child
				advanced = true
				break
			}
			f.latch.RUnlock()
			s.pool.put(f, false)
			stack = stack[:len(stack)-1]
		}
		if !advanced {
			return nil
		}
	}
}

// Splits returns up to n-1 ascending keys that cut the key space into
// at most n ranges holding about equal shares of the root's children,
// or of its grandchildren when the root has fewer than n children:
// scanning [nil, k1), [k1, k2), …, [kLast, nil) visits every key
// exactly once, so the ranges can be scanned in parallel. A tree whose
// root is a leaf, or n <= 1, gives none.
func (s *Store) Splits(n int) ([][]byte, error) {
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	id := s.root.Load()
	if id == 0 || n <= 1 {
		return nil, nil
	}
	keys, kids, err := s.branchKeys(id)
	if err != nil || len(keys) == 0 {
		return nil, err
	}
	// Candidate split keys: every separator but the first, a lower bound.
	cand := keys[1:]
	if len(cand)+1 < n {
		var finer [][]byte
		for i, kid := range kids {
			ks, _, err := s.branchKeys(kid)
			if err != nil {
				return nil, err
			}
			if len(ks) == 0 {
				finer = nil // the children are leaves
				break
			}
			if i > 0 {
				finer = append(finer, keys[i])
			}
			finer = append(finer, ks[1:]...)
		}
		if len(finer) > len(cand) {
			cand = finer
		}
	}
	n = min(n, len(cand)+1)
	out := make([][]byte, 0, n-1)
	for r := 1; r < n; r++ {
		out = append(out, cand[r*(len(cand)+1)/n-1])
	}
	return out, nil
}

// branchKeys returns the separator keys and children of branch page
// id, or nothing when it is a leaf.
func (s *Store) branchKeys(id uint32) ([][]byte, []uint32, error) {
	f, err := s.pool.get(id, false)
	if err != nil {
		return nil, nil, err
	}
	f.latch.RLock()
	pg := page(f.buf)
	var keys [][]byte
	var kids []uint32
	if pg.kind() == kindBranch {
		for i := 0; i < pg.ncells(); i++ {
			_, child := pg.branchCell(i)
			keys, kids = append(keys, pg.keyAt(i)), append(kids, child)
		}
	}
	f.latch.RUnlock()
	s.pool.put(f, false)
	return keys, kids, nil
}

// splitItems greedily packs sorted items into groups of at most
// pageFillTarget bytes, sized with a zero-length prefix (an over-
// estimate, so every group is guaranteed to build).
func splitItems(kind byte, items []item) [][]item {
	var groups [][]item
	var cur []item
	size := 0
	for _, it := range items {
		need := 2 + cellSize(kind, it, 0)
		if len(cur) > 0 && size+need > pageFillTarget {
			groups = append(groups, cur)
			cur, size = nil, 0
		}
		cur = append(cur, it)
		size += need
	}
	return append(groups, cur)
}

// insertItemAt returns items with it inserted at position idx.
func insertItemAt(items []item, idx int, it item) []item {
	items = append(items, item{})
	copy(items[idx+1:], items[idx:])
	items[idx] = it
	return items
}

// insertItemSorted inserts it into key-sorted items.
func insertItemSorted(items []item, it item) []item {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(items[mid].key, it.key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return insertItemAt(items, lo, it)
}
