package mining

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FP-growth (Han, Pei & Yin, SIGMOD 2000) mines the same frequent
// itemsets as Apriori without candidate generation: transactions are
// compressed into a prefix tree ordered by descending item frequency
// (the FP-tree), and patterns grow by recursing into per-item
// conditional trees. Two properties make it the scale engine here:
//
//   - the tree is built once per epoch from the weighted distinct-
//     transaction table (intern.go), so cost is O(distinct txs ×
//     depth) regardless of raw row count; and
//   - both construction and mining parallelize — one tree per table
//     stripe built concurrently and merged, then a worker pool
//     divides the top-level header ranks, whose conditional search
//     spaces are independent.
//
// "Rank" below is an item id renumbered so rank 0 is the most
// frequent item (ties broken by normalized key for determinism);
// every path in the tree is strictly rank-ascending from the root.

// FPGrowth is the FP-growth mining engine. The zero value is ready to
// use. It satisfies Miner, and (via extractor.go) core.PatternExtractor
// alongside the Apriori-backed Extractor; differential tests pin its
// output byte-identical to Apriori.
type FPGrowth struct {
	// KeepPartial retains frequent itemsets narrower than the full
	// attribute width when extracting refinement patterns, mirroring
	// Extractor.KeepPartial.
	KeepPartial bool
	// Workers bounds the pattern-growth worker pool; <= 0 means
	// GOMAXPROCS.
	Workers int
}

// fpNode is one FP-tree node in the arena. Links are arena indices,
// -1 for none; node 0 is the root.
type fpNode struct {
	rank   int32
	count  int
	parent int32
	child  int32 // first child
	sib    int32 // next sibling
	hlink  int32 // next node of the same rank (header chain)
}

type fpTree struct {
	nodes []fpNode
	head  []int32 // per-rank header chain head, -1 if absent
	cnt   []int   // per-rank total weighted count
}

func newFPTree(ranks int) *fpTree {
	t := &fpTree{
		nodes: make([]fpNode, 1, 64),
		head:  make([]int32, ranks),
		cnt:   make([]int, ranks),
	}
	t.nodes[0] = fpNode{rank: -1, parent: -1, child: -1, sib: -1, hlink: -1}
	for i := range t.head {
		t.head[i] = -1
	}
	return t
}

// insert folds one rank-ascending transaction with the given weight.
func (t *fpTree) insert(ranks []int32, weight int) {
	cur := int32(0)
	for _, rk := range ranks {
		t.cnt[rk] += weight
		found := int32(-1)
		for c := t.nodes[cur].child; c >= 0; c = t.nodes[c].sib {
			if t.nodes[c].rank == rk {
				found = c
				break
			}
		}
		if found < 0 {
			found = int32(len(t.nodes))
			t.nodes = append(t.nodes, fpNode{rank: rk, parent: cur, child: -1, sib: t.nodes[cur].child, hlink: -1})
			t.nodes[cur].child = found
		}
		t.nodes[found].count += weight
		cur = found
	}
}

// merge folds another tree built over the same rank space into t by
// recursive structural descent: shared prefixes add counts, divergent
// branches graft.
func (t *fpTree) merge(o *fpTree) {
	for i := range t.cnt {
		t.cnt[i] += o.cnt[i]
	}
	t.mergeChildren(0, o, 0)
}

func (t *fpTree) mergeChildren(dst int32, o *fpTree, src int32) {
	for c := o.nodes[src].child; c >= 0; c = o.nodes[c].sib {
		rk := o.nodes[c].rank
		found := int32(-1)
		for d := t.nodes[dst].child; d >= 0; d = t.nodes[d].sib {
			if t.nodes[d].rank == rk {
				found = d
				break
			}
		}
		if found < 0 {
			found = int32(len(t.nodes))
			t.nodes = append(t.nodes, fpNode{rank: rk, parent: dst, child: -1, sib: t.nodes[dst].child, hlink: -1})
			t.nodes[dst].child = found
		}
		t.nodes[found].count += o.nodes[c].count
		t.mergeChildren(found, o, c)
	}
}

// link threads the header chains after all inserts/merges. Chain
// order does not affect mined supports; building it in one pass keeps
// construction O(nodes).
func (t *fpTree) link() {
	stack := make([]int32, 0, 32)
	stack = append(stack, 0)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := t.nodes[n].child; c >= 0; c = t.nodes[c].sib {
			rk := t.nodes[c].rank
			t.nodes[c].hlink = t.head[rk]
			t.head[rk] = c
			stack = append(stack, c)
		}
	}
}

// conditional builds the conditional FP-tree of rank r: the prefix
// paths of every r-node, reweighted by the r-node counts, with ranks
// that fall below minSupport in the conditional base pruned.
func (t *fpTree) conditional(r int32, minSupport int, condCnt []int) *fpTree {
	for i := range condCnt {
		condCnt[i] = 0
	}
	for n := t.head[r]; n >= 0; n = t.nodes[n].hlink {
		w := t.nodes[n].count
		for p := t.nodes[n].parent; p > 0; p = t.nodes[p].parent {
			condCnt[t.nodes[p].rank] += w
		}
	}
	ct := newFPTree(len(t.head))
	var path []int32
	for n := t.head[r]; n >= 0; n = t.nodes[n].hlink {
		w := t.nodes[n].count
		path = path[:0]
		for p := t.nodes[n].parent; p > 0; p = t.nodes[p].parent {
			if condCnt[t.nodes[p].rank] >= minSupport {
				path = append(path, t.nodes[p].rank)
			}
		}
		if len(path) == 0 {
			continue
		}
		// The upward walk yields ranks deepest-first; inserts expect
		// rank-ascending (root-first) order.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		ct.insert(path, w)
	}
	ct.link()
	return ct
}

// fpMine runs FP-growth over a transaction table: frequency ranking,
// concurrent per-stripe tree builds, structural merge, then pattern
// growth with a worker pool over the top-level ranks.
func fpMine(t *txTable, minSupport, workers int) []mined {
	counts := t.counts()
	var freqIDs []int32
	for id, c := range counts {
		if c >= minSupport {
			freqIDs = append(freqIDs, int32(id))
		}
	}
	if len(freqIDs) == 0 {
		return nil
	}
	sortRanks(freqIDs, counts, t.in.keys)
	id2rank := make([]int32, len(counts))
	for i := range id2rank {
		id2rank[i] = -1
	}
	for r, id := range freqIDs {
		id2rank[id] = int32(r)
	}
	nr := len(freqIDs)

	// One tree per table stripe, built concurrently.
	trees := make([]*fpTree, len(t.shards))
	var wg sync.WaitGroup
	for s := range t.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tree := newFPTree(nr)
			sh := &t.shards[s]
			var ranks []int32
			for row, set := range sh.sets {
				ranks = ranks[:0]
				for _, id := range set {
					if rk := id2rank[id]; rk >= 0 {
						ranks = append(ranks, rk)
					}
				}
				sortIDs(ranks)
				tree.insert(ranks, sh.weight[row])
			}
			trees[s] = tree
		}(s)
	}
	wg.Wait()
	tree := trees[0]
	for _, o := range trees[1:] {
		tree.merge(o)
	}
	tree.link()

	// Pattern growth: the conditional search space under each
	// top-level rank is independent, so a pool divides the ranks and
	// each worker accumulates into its own slot.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nr {
		workers = nr
	}
	perRank := make([][]mined, nr)
	var cursor int64 = -1
	wg = sync.WaitGroup{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &fpMiner{
				rank2id:    freqIDs,
				minSupport: minSupport,
				condCnt:    make([]int, nr),
			}
			for {
				r := atomic.AddInt64(&cursor, 1)
				if r >= int64(nr) {
					return
				}
				m.out = nil
				m.suffix = m.suffix[:0]
				m.grow(tree, int32(r))
				perRank[r] = m.out
			}
		}()
	}
	wg.Wait()

	var out []mined
	for _, ms := range perRank {
		out = append(out, ms...)
	}
	return out
}

// fpMiner is one pattern-growth worker's state.
type fpMiner struct {
	rank2id    []int32
	minSupport int
	condCnt    []int
	suffix     []int32 // current rank path, mutated along the recursion
	out        []mined
}

// grow emits the itemset suffix∪{r} and recurses into r's conditional
// tree. Every rank reachable in tree is already >= minSupport (the
// full tree contains only frequent ranks; conditional trees prune at
// construction), so cnt[r] is the itemset's exact weighted support.
func (m *fpMiner) grow(tree *fpTree, r int32) {
	m.suffix = append(m.suffix, r)
	ids := make([]int32, len(m.suffix))
	for i, rk := range m.suffix {
		ids[i] = m.rank2id[rk]
	}
	sortIDs(ids)
	m.out = append(m.out, mined{ids: ids, support: tree.cnt[r]})

	ct := tree.conditional(r, m.minSupport, m.condCnt)
	for rk := int32(len(ct.head)) - 1; rk >= 0; rk-- {
		if ct.head[rk] >= 0 {
			m.grow(ct, rk)
		}
	}
	m.suffix = m.suffix[:len(m.suffix)-1]
}

// sortRanks orders frequent ids by descending support, ties broken by
// normalized key so the ranking — and therefore tree shape — is
// deterministic.
func sortRanks(ids []int32, counts []int, keys []string) {
	// Insertion sort keeps this allocation-free; the frequent-item
	// alphabet is small relative to the transaction volume.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if counts[a] > counts[b] || (counts[a] == counts[b] && keys[a] < keys[b]) {
				break
			}
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
