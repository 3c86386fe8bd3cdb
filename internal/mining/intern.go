package mining

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/vocab"
)

func errMinSupport(m int) error {
	return fmt.Errorf("mining: minSupport must be >= 1, got %d", m)
}

// Dense item interning. Both mining engines and the evidence pass
// operate on small integer ids instead of item key strings: the
// normalized (lowercased) key of each distinct item is computed
// exactly once per epoch, killing the strings.ToLower churn the
// string-keyed Apriori paid twice per comparison in its hot loops.

// interner assigns dense ids to items by normalized key, remembering
// the first-seen display form of each key so mined itemsets render
// with the same representative item the string-keyed algorithm chose.
type interner struct {
	ids  map[string]int32
	keys []string // id -> normalized key
	reps []Item   // id -> first-seen representative
}

func newInterner() *interner {
	return &interner{ids: make(map[string]int32)}
}

// intern returns the id of the item, assigning the next dense id on
// first sight. The key is computed once here and never again.
func (in *interner) intern(it Item) int32 {
	k := it.key()
	if id, ok := in.ids[k]; ok {
		return id
	}
	id := int32(len(in.keys))
	in.ids[k] = id
	in.keys = append(in.keys, k)
	in.reps = append(in.reps, it)
	return id
}

func (in *interner) size() int { return len(in.keys) }

// itemset materializes a sorted id set into a public Itemset. The ids
// carry arbitrary (first-seen) order, so the result is re-sorted by
// key — the Itemset invariant.
func (in *interner) itemset(ids []int32) Itemset {
	sorted := append([]int32(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return in.keys[sorted[i]] < in.keys[sorted[j]] })
	out := make(Itemset, len(sorted))
	for i, id := range sorted {
		out[i] = in.reps[id]
	}
	return out
}

// setKey returns the canonical itemset key (Itemset.Key) of a set of
// ids without materializing the items.
func (in *interner) setKey(ids []int32) string {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = in.keys[id]
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		n += len(k) + 1
	}
	b := make([]byte, 0, n)
	for i, k := range keys {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, k...)
	}
	return string(b)
}

// packIDs encodes a sorted id set as a byte string for map keying.
func packIDs(buf []byte, ids []int32) []byte {
	buf = buf[:0]
	var tmp [4]byte
	for _, id := range ids {
		binary.BigEndian.PutUint32(tmp[:], uint32(id))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

// txShard is one stripe of the weighted distinct-transaction table.
type txShard struct {
	index  map[string]int32 // packed id set -> row
	sets   [][]int32        // sorted ascending by id
	weight []int
	users  []map[string]struct{} // normalized users; nil when evidence is off
	first  []time.Time
	last   []time.Time
}

// txTable is the weighted distinct-transaction view both engines mine
// from: audit projections repeat heavily (every practice row over the
// default attributes collapses onto its (data, purpose, authorized)
// triple), so mining and the evidence pass cost O(distinct
// transactions), not O(rows). Rows are striped across shards by a
// hash of the transaction identity so per-shard FP-trees can be built
// concurrently; the interner is shared and fold is single-writer.
type txTable struct {
	in       *interner
	shards   []txShard
	rows     int  // total weight (raw transaction count)
	evidence bool // track users and time windows per distinct transaction

	scratchIDs []int32
	scratchBuf []byte
}

// defaultTableShards matches the audit log's stripe count: enough
// parallelism for tree construction without widening merges.
const defaultTableShards = 16

func newTxTable(shards int, evidence bool) *txTable {
	if shards < 1 {
		shards = 1
	}
	t := &txTable{in: newInterner(), shards: make([]txShard, shards), evidence: evidence}
	for i := range t.shards {
		t.shards[i].index = make(map[string]int32)
	}
	return t
}

// shardOf routes a packed transaction to its stripe (FNV-1a).
func (t *txTable) shardOf(packed []byte) int {
	if len(t.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range packed {
		h = (h ^ uint64(c)) * prime64
	}
	return int(h % uint64(len(t.shards)))
}

// foldIDs folds one transaction (a scratch id slice, not retained)
// with the given weight and optional evidence into the table.
func (t *txTable) foldIDs(ids []int32, weight int, user string, at time.Time) {
	sortIDs(ids)
	ids = dedupIDs(ids)
	t.scratchBuf = packIDs(t.scratchBuf, ids)
	sh := &t.shards[t.shardOf(t.scratchBuf)]
	row, ok := sh.index[string(t.scratchBuf)]
	if !ok {
		row = int32(len(sh.sets))
		sh.index[string(t.scratchBuf)] = row
		sh.sets = append(sh.sets, append([]int32(nil), ids...))
		sh.weight = append(sh.weight, 0)
		if t.evidence {
			sh.users = append(sh.users, make(map[string]struct{}, 2))
			sh.first = append(sh.first, time.Time{})
			sh.last = append(sh.last, time.Time{})
		}
	}
	sh.weight[row] += weight
	t.rows += weight
	if t.evidence {
		sh.users[row][vocab.Norm(user)] = struct{}{}
		if !at.IsZero() {
			if sh.first[row].IsZero() || at.Before(sh.first[row]) {
				sh.first[row] = at
			}
			if at.After(sh.last[row]) {
				sh.last[row] = at
			}
		}
	}
}

// foldUsers merges a pre-accumulated raw user set into a transaction's
// evidence (the audit-index feed path, where distinct users arrive per
// group instead of per row).
func (t *txTable) foldGroup(ids []int32, weight int, users []string, first, last time.Time) {
	sortIDs(ids)
	ids = dedupIDs(ids)
	t.scratchBuf = packIDs(t.scratchBuf, ids)
	sh := &t.shards[t.shardOf(t.scratchBuf)]
	row, ok := sh.index[string(t.scratchBuf)]
	if !ok {
		row = int32(len(sh.sets))
		sh.index[string(t.scratchBuf)] = row
		sh.sets = append(sh.sets, append([]int32(nil), ids...))
		sh.weight = append(sh.weight, 0)
		if t.evidence {
			sh.users = append(sh.users, make(map[string]struct{}, len(users)))
			sh.first = append(sh.first, time.Time{})
			sh.last = append(sh.last, time.Time{})
		}
	}
	sh.weight[row] += weight
	t.rows += weight
	if t.evidence {
		for _, u := range users {
			sh.users[row][vocab.Norm(u)] = struct{}{}
		}
		if !first.IsZero() && (sh.first[row].IsZero() || first.Before(sh.first[row])) {
			sh.first[row] = first
		}
		if last.After(sh.last[row]) {
			sh.last[row] = last
		}
	}
}

// counts returns the weighted support of every interned item.
func (t *txTable) counts() []int {
	counts := make([]int, t.in.size())
	for s := range t.shards {
		sh := &t.shards[s]
		for r, set := range sh.sets {
			w := sh.weight[r]
			for _, id := range set {
				counts[id] += w
			}
		}
	}
	return counts
}

func sortIDs(ids []int32) {
	if len(ids) < 2 {
		return
	}
	// Insertion sort: transactions are projections over a handful of
	// attributes, so n is tiny and this beats sort.Slice's overhead.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// dedupIDs removes adjacent duplicates from a sorted id slice.
func dedupIDs(ids []int32) []int32 {
	if len(ids) < 2 {
		return ids
	}
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// containsIDs reports whether sorted set contains sorted sub.
func containsIDs(set, sub []int32) bool {
	i := 0
	for _, id := range sub {
		for i < len(set) && set[i] < id {
			i++
		}
		if i >= len(set) || set[i] != id {
			return false
		}
	}
	return true
}

// mined is an engine-internal frequent itemset: interned ids (sorted
// ascending) plus the weighted support.
type mined struct {
	ids     []int32
	support int
}

// finishResult converts engine output into the public Result,
// reproducing the canonical ordering (size, then itemset key).
func finishResult(t *txTable, sets []mined, transactions, minSupport int) *Result {
	res := &Result{Transactions: transactions, MinSupport: minSupport}
	if len(sets) == 0 {
		return res
	}
	type keyedSet struct {
		m   mined
		key string
	}
	ks := make([]keyedSet, len(sets))
	for i, m := range sets {
		ks[i] = keyedSet{m: m, key: t.in.setKey(m.ids)}
	}
	sort.Slice(ks, func(i, j int) bool {
		if len(ks[i].m.ids) != len(ks[j].m.ids) {
			return len(ks[i].m.ids) < len(ks[j].m.ids)
		}
		return ks[i].key < ks[j].key
	})
	res.Frequent = make([]Frequent, len(ks))
	for i, k := range ks {
		res.Frequent[i] = Frequent{Items: t.in.itemset(k.m.ids), Support: k.m.support}
	}
	return res
}
