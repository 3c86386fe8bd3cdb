// Package storage is the durable storage engine under minidb and the
// audit store: a slotted-page file pager over fixed 4 KiB pages with a
// persistent free list, an LRU buffer pool with pin counts behind a
// lock-striped page table, a disk-backed B+tree with copy-on-write
// page updates and per-page prefix-truncated keys, and a group-commit
// write-ahead log (double-buffered records, fsync batching, CRC-framed
// segments, checkpoint + truncation).
//
// Crash consistency follows the shadow-paging model: pages referenced
// by the last durable meta record are never written in place. Tree
// mutations copy cold pages to freshly allocated ones (pages allocated
// since the last checkpoint are mutable), and Checkpoint flushes every
// dirty frame, fsyncs, then swaps the double-slot CRC'd meta page —
// the atomic commit point. Pages freed by copy-on-write return to the
// free list only after the checkpoint that unreferences them, so a
// torn checkpoint always leaves the previous tree intact. Operations
// newer than the last checkpoint are replayed from the WAL.
package storage

import (
	"bytes"
	"encoding/binary"
)

// PageSize is the fixed page size of every pager file and the unit the
// buffer pool caches. 4 KiB matches the common filesystem block size,
// so a page write is one block write.
const PageSize = 4096

// pageHeaderSize is the fixed header at the start of every page:
//
//	[0]     kind
//	[1]     flags (unused)
//	[2:4]   ncells  (uint16)
//	[4:6]   cellsBegin (uint16) — lowest cell byte offset; cells grow down
//	[6:10]  aux (uint32) — leaf: next-leaf page id; freelist: next chain page
//	[10:12] prefixLen (uint16) — shared key prefix stored at the page tail
//	[12:16] reserved
//
// The slot array (one uint16 cell offset per cell, key-sorted) follows
// the header; cell bodies grow down from the prefix region at the page
// tail.
const pageHeaderSize = 16

// Page kinds.
const (
	kindFree     byte = 0
	kindBranch   byte = 2
	kindLeaf     byte = 3
	kindFreelist byte = 4
)

// maxCellPayload bounds key+value so that any page can hold at least
// four cells after the header, the slot entry and the varint framing.
const maxCellPayload = (PageSize - pageHeaderSize) / 4

type page []byte

func initPage(p page, kind byte) {
	for i := range p {
		p[i] = 0
	}
	p[0] = kind
	putU16(p[4:6], PageSize) // empty cell area, no prefix
}

func (p page) kind() byte  { return p[0] }
func (p page) ncells() int { return int(binary.LittleEndian.Uint16(p[2:4])) }
func (p page) cellsBegin() int {
	return int(binary.LittleEndian.Uint16(p[4:6]))
}
func (p page) aux() uint32     { return binary.LittleEndian.Uint32(p[6:10]) }
func (p page) setAux(v uint32) { binary.LittleEndian.PutUint32(p[6:10], v) }
func (p page) prefixLen() int  { return int(binary.LittleEndian.Uint16(p[10:12])) }

// prefix returns the shared key prefix stored at the page tail.
func (p page) prefix() []byte { return p[PageSize-p.prefixLen() : PageSize] }

func (p page) setNCells(n int)     { putU16(p[2:4], uint16(n)) }
func (p page) setCellsBegin(o int) { putU16(p[4:6], uint16(o)) }
func (p page) setPrefixLen(n int)  { putU16(p[10:12], uint16(n)) }

func putU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }

// slotOffset returns the cell body offset of slot i.
func (p page) slotOffset(i int) int {
	return int(binary.LittleEndian.Uint16(p[pageHeaderSize+2*i : pageHeaderSize+2*i+2]))
}

func (p page) setSlotOffset(i, off int) {
	putU16(p[pageHeaderSize+2*i:pageHeaderSize+2*i+2], uint16(off))
}

// freeSpace is the gap between the end of the slot array and the start
// of the cell area.
func (p page) freeSpace() int {
	return p.cellsBegin() - (pageHeaderSize + 2*p.ncells())
}

// cell accessors. Leaf cell body: uvarint suffixLen, uvarint valLen,
// suffix, value. Branch cell body: uvarint suffixLen, uint32 child,
// suffix. Keys are stored suffix-only; the page prefix completes them.

// leafCell decodes slot i of a leaf page, returning the key suffix and
// value without copying.
func (p page) leafCell(i int) (suffix, val []byte) {
	off := p.slotOffset(i)
	klen, n := binary.Uvarint(p[off:])
	off += n
	vlen, n := binary.Uvarint(p[off:])
	off += n
	return p[off : off+int(klen)], p[off+int(klen) : off+int(klen)+int(vlen)]
}

// branchCell decodes slot i of a branch page, returning the key suffix
// and child page id.
func (p page) branchCell(i int) (suffix []byte, child uint32) {
	off := p.slotOffset(i)
	klen, n := binary.Uvarint(p[off:])
	off += n
	child = binary.LittleEndian.Uint32(p[off : off+4])
	off += 4
	return p[off : off+int(klen)], child
}

// setBranchChild patches the child pointer of branch slot i in place
// (the child field is fixed-width, right after the suffix-length
// varint, so no rebuild is needed).
func (p page) setBranchChild(i int, child uint32) {
	off := p.slotOffset(i)
	_, n := binary.Uvarint(p[off:])
	binary.LittleEndian.PutUint32(p[off+n:off+n+4], child)
}

// keySuffix returns the key suffix of slot i for either page kind.
func (p page) keySuffix(i int) []byte {
	if p.kind() == kindLeaf {
		s, _ := p.leafCell(i)
		return s
	}
	s, _ := p.branchCell(i)
	return s
}

// compareKey compares the full key at slot i (prefix + suffix) against
// key without materializing the concatenation.
func (p page) compareKey(i int, key []byte) int {
	pre := p.prefix()
	n := len(pre)
	if n > len(key) {
		if c := bytes.Compare(pre[:len(key)], key); c != 0 {
			return c
		}
		return 1 // stored key strictly longer within the prefix
	}
	if c := bytes.Compare(pre, key[:n]); c != 0 {
		return c
	}
	return bytes.Compare(p.keySuffix(i), key[n:])
}

// search binary-searches for key, returning the first slot whose key
// is >= key, and whether it is an exact match.
func (p page) search(key []byte) (idx int, found bool) {
	lo, hi := 0, p.ncells()
	for lo < hi {
		mid := (lo + hi) / 2
		c := p.compareKey(mid, key)
		if c < 0 {
			lo = mid + 1
		} else {
			if c == 0 {
				return mid, true
			}
			hi = mid
		}
	}
	return lo, false
}

// keyAt materializes the full key at slot i.
func (p page) keyAt(i int) []byte {
	pre := p.prefix()
	suf := p.keySuffix(i)
	out := make([]byte, 0, len(pre)+len(suf))
	out = append(out, pre...)
	return append(out, suf...)
}

// item is one materialized page entry used by the rebuild/split path.
type item struct {
	key   []byte
	val   []byte // leaf payload
	child uint32 // branch pointer
}

// items extracts every cell of the page as full-key items, in order.
func (p page) items() []item {
	n := p.ncells()
	out := make([]item, n)
	pre := p.prefix()
	for i := 0; i < n; i++ {
		if p.kind() == kindLeaf {
			suf, val := p.leafCell(i)
			k := make([]byte, 0, len(pre)+len(suf))
			out[i].key = append(append(k, pre...), suf...)
			out[i].val = append([]byte(nil), val...)
		} else {
			suf, child := p.branchCell(i)
			k := make([]byte, 0, len(pre)+len(suf))
			out[i].key = append(append(k, pre...), suf...)
			out[i].child = child
		}
	}
	return out
}

// commonPrefix computes the longest common prefix of the item keys.
func commonPrefix(items []item) []byte {
	if len(items) == 0 {
		return nil
	}
	pre := items[0].key
	for _, it := range items[1:] {
		n := 0
		for n < len(pre) && n < len(it.key) && pre[n] == it.key[n] {
			n++
		}
		pre = pre[:n]
		if n == 0 {
			break
		}
	}
	// Cap the prefix so it cannot collide with the header/slot region
	// arithmetic on pathological single-key pages.
	if len(pre) > 1024 {
		pre = pre[:1024]
	}
	return pre
}

// cellSize returns the encoded size of an item under a given prefix.
func cellSize(kind byte, it item, prefixLen int) int {
	suf := len(it.key) - prefixLen
	if kind == kindLeaf {
		return uvarintLen(uint64(suf)) + uvarintLen(uint64(len(it.val))) + suf + len(it.val)
	}
	return uvarintLen(uint64(suf)) + 4 + suf
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// build writes items (key-sorted) into p with a freshly computed
// shared prefix. aux is preserved. It reports false when the items do
// not fit (the caller must split).
func (p page) build(kind byte, items []item) bool {
	aux := p.aux()
	pre := commonPrefix(items)
	need := pageHeaderSize + 2*len(items) + len(pre)
	for _, it := range items {
		need += cellSize(kind, it, len(pre))
	}
	if need > PageSize {
		return false
	}
	initPage(p, kind)
	p.setAux(aux)
	p.setPrefixLen(len(pre))
	copy(p[PageSize-len(pre):], pre)
	p.setNCells(len(items))
	off := PageSize - len(pre)
	for i, it := range items {
		suf := it.key[len(pre):]
		sz := cellSize(kind, it, len(pre))
		off -= sz
		p.setSlotOffset(i, off)
		o := off
		o += binary.PutUvarint(p[o:], uint64(len(suf)))
		if kind == kindLeaf {
			o += binary.PutUvarint(p[o:], uint64(len(it.val)))
			copy(p[o:], suf)
			copy(p[o+len(suf):], it.val)
		} else {
			binary.LittleEndian.PutUint32(p[o:o+4], it.child)
			copy(p[o+4:], suf)
		}
	}
	p.setCellsBegin(off)
	return true
}

// insertFast attempts the in-place insert of a leaf/branch item at
// slot idx without rebuilding: the key must extend the page prefix and
// the cell must fit in the free gap. Returns false when the slow
// (rebuild or split) path is required.
func (p page) insertFast(idx int, it item) bool {
	pre := p.prefix()
	if len(it.key) < len(pre) || !bytes.HasPrefix(it.key, pre) {
		return false
	}
	sz := cellSize(p.kind(), it, len(pre))
	if p.freeSpace() < sz+2 {
		return false
	}
	n := p.ncells()
	// Shift slots [idx, n) right by one.
	copy(p[pageHeaderSize+2*idx+2:pageHeaderSize+2*n+2], p[pageHeaderSize+2*idx:pageHeaderSize+2*n])
	off := p.cellsBegin() - sz
	p.setSlotOffset(idx, off)
	suf := it.key[len(pre):]
	o := off
	o += binary.PutUvarint(p[o:], uint64(len(suf)))
	if p.kind() == kindLeaf {
		o += binary.PutUvarint(p[o:], uint64(len(it.val)))
		copy(p[o:], suf)
		copy(p[o+len(suf):], it.val)
	} else {
		binary.LittleEndian.PutUint32(p[o:o+4], it.child)
		copy(p[o+4:], suf)
	}
	p.setCellsBegin(off)
	p.setNCells(n + 1)
	return true
}

// deleteSlot removes slot i, leaving its cell bytes as garbage that a
// later rebuild reclaims.
func (p page) deleteSlot(i int) {
	n := p.ncells()
	copy(p[pageHeaderSize+2*i:pageHeaderSize+2*n-2], p[pageHeaderSize+2*i+2:pageHeaderSize+2*n])
	p.setNCells(n - 1)
}
