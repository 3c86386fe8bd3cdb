// Package mining implements frequent-itemset mining for PRIMA's §5
// data-analysis upgrade: the Apriori algorithm of Agrawal & Srikant
// (VLDB 1994, the paper's reference [18]) as the reference oracle, and
// an FP-growth engine (fpgrowth.go) for audit scale. §5 proposes itemset mining to detect correlations between
// attribute pairs "that are not discovered by simple SQL queries":
// the exact GROUP BY of Algorithm 5 only finds full-width rules,
// while frequent sub-rules (e.g. every purpose under which a role
// touches one data category) need the itemset lattice.
//
// Both engines run over interned integer item ids and a weighted
// distinct-transaction table (intern.go), so the normalized key of
// each item is computed once per mining run instead of twice per
// comparison, and repeated audit projections collapse into one
// weighted row.
package mining

import (
	"sort"
	"strings"
)

// Item is one attribute=value element of a transaction.
type Item struct {
	Attr  string
	Value string
}

// String renders the item.
func (it Item) String() string { return it.Attr + "=" + it.Value }

func (it Item) key() string {
	return strings.ToLower(it.Attr) + "=" + strings.ToLower(it.Value)
}

// Itemset is a set of items, kept sorted by key.
type Itemset []Item

// Key returns the canonical identity of the itemset.
func (s Itemset) Key() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.key()
	}
	return strings.Join(parts, "&")
}

// String renders the itemset.
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Frequent is an itemset with its absolute support count.
type Frequent struct {
	Items   Itemset
	Support int
}

// Result holds the mining output, grouped by itemset size.
type Result struct {
	Transactions int
	MinSupport   int
	Frequent     []Frequent // all frequent itemsets, size-then-key order
}

// aprioriMine is the levelwise engine over a weighted transaction
// table. It works in "rank" space — ids renumbered so rank order
// equals key order — which makes the sorted-level prefix join and the
// subset tests pure integer comparisons.
func aprioriMine(t *txTable, minSupport int) []mined {
	n := t.in.size()
	if n == 0 {
		return nil
	}
	// Rank permutation: rank order == normalized key order.
	rank2id := make([]int32, n)
	for i := range rank2id {
		rank2id[i] = int32(i)
	}
	sort.Slice(rank2id, func(i, j int) bool { return t.in.keys[rank2id[i]] < t.in.keys[rank2id[j]] })
	id2rank := make([]int32, n)
	for r, id := range rank2id {
		id2rank[id] = int32(r)
	}

	// Rank-space copies of the distinct transactions.
	type wset struct {
		set []int32
		w   int
	}
	var rsets []wset
	counts := make([]int, n)
	for s := range t.shards {
		sh := &t.shards[s]
		for r, set := range sh.sets {
			rs := make([]int32, len(set))
			for i, id := range set {
				rs[i] = id2rank[id]
			}
			sortIDs(rs)
			rsets = append(rsets, wset{set: rs, w: sh.weight[r]})
			for _, rk := range rs {
				counts[rk] += sh.weight[r]
			}
		}
	}

	emit := func(out []mined, ranks []int32, support int) []mined {
		ids := make([]int32, len(ranks))
		for i, rk := range ranks {
			ids[i] = rank2id[rk]
		}
		sortIDs(ids)
		return append(out, mined{ids: ids, support: support})
	}

	var out []mined
	var level [][]int32
	for rk := 0; rk < n; rk++ {
		if counts[rk] >= minSupport {
			level = append(level, []int32{int32(rk)})
			out = emit(out, level[len(level)-1], counts[rk])
		}
	}

	for len(level) > 0 {
		candidates := generateCandidates(level)
		if len(candidates) == 0 {
			break
		}
		supp := make([]int, len(candidates))
		for _, ws := range rsets {
			for i, c := range candidates {
				if containsIDs(ws.set, c) {
					supp[i] += ws.w
				}
			}
		}
		var next [][]int32
		for i, c := range candidates {
			if supp[i] >= minSupport {
				next = append(next, c)
				out = emit(out, c, supp[i])
			}
		}
		level = next
	}
	return out
}

// generateCandidates joins each pair of k-sets sharing their first
// k-1 ranks, then prunes candidates with an infrequent subset
// (the Apriori downward-closure property). The level is sorted
// lexicographically, so same-prefix sets are contiguous.
func generateCandidates(level [][]int32) [][]int32 {
	freq := make(map[string]bool, len(level))
	var buf []byte
	for _, s := range level {
		buf = packIDs(buf, s)
		freq[string(buf)] = true
	}
	k := len(level[0])
	var out [][]int32
	sub := make([]int32, k)
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			if !samePrefix(a, b, k-1) {
				break // level is sorted; prefixes diverge from here on
			}
			cand := make([]int32, k+1)
			copy(cand, a)
			cand[k] = b[k-1]
			if !allSubsetsFrequent(cand, sub, freq, &buf) {
				continue
			}
			out = append(out, cand)
		}
	}
	return out
}

func samePrefix(a, b []int32, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori pruning property: every
// k-subset of a (k+1)-candidate must be frequent.
func allSubsetsFrequent(cand, sub []int32, freq map[string]bool, buf *[]byte) bool {
	for skip := range cand {
		sub = sub[:0]
		sub = append(sub, cand[:skip]...)
		sub = append(sub, cand[skip+1:]...)
		*buf = packIDs(*buf, sub)
		if !freq[string(*buf)] {
			return false
		}
	}
	return true
}
