package mining

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// basketWorkload builds a market-basket workload that separates the
// two mining engines algorithmically: every transaction holds perHot
// items from a small co-occurring alphabet plus perCold items smeared
// over a large one. All singles clear the support threshold, so
// Apriori's pair-candidate scan is quadratic in the alphabet while
// FP-growth reads the same answer off one prefix tree.
func basketWorkload(txs, hot, cold, perHot, perCold int, seed int64) []Transaction {
	rng := rand.New(rand.NewSource(seed))
	sample := func(attr string, n, k int, dst Transaction) Transaction {
		seen := make(map[int]bool, k)
		for len(seen) < k {
			i := rng.Intn(n)
			if seen[i] {
				continue
			}
			seen[i] = true
			dst = append(dst, Item{Attr: attr, Value: fmt.Sprintf("%s%d", attr, i)})
		}
		return dst
	}
	out := make([]Transaction, txs)
	for t := range out {
		tx := sample("proc", hot, perHot, nil)
		out[t] = sample("med", cold, perCold, tx)
	}
	return out
}

// denseTxs biases items toward low indexes (triangular distribution)
// so the FP-tree grows deep shared prefixes and a multi-level frequent
// lattice — the conditional pattern-growth pool's heaviest shape.
func denseTxs(n, alphabet, per int, seed int64) []Transaction {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Transaction, n)
	for t := range out {
		seen := make(map[int]bool, per)
		var tx Transaction
		for len(seen) < per {
			i := rng.Intn(alphabet)
			if j := rng.Intn(alphabet); j < i {
				i = j
			}
			if seen[i] {
				continue
			}
			seen[i] = true
			tx = append(tx, Item{Attr: "op", Value: fmt.Sprintf("op%d", i)})
		}
		out[t] = tx
	}
	return out
}

// BenchmarkE15_Mine holds E15's transaction-level engine rows (the
// audit-scale rows are the root package's BenchmarkE15_MiningScale):
//
//   - baskets/engine — the engines' algorithmic separation on a dense
//     candidate-explosion workload (Apriori's L2 scan vs one FP-tree).
//   - fptree/procs=P — parallel per-shard tree build + pattern-growth
//     worker pool at GOMAXPROCS 1/4/8 (flat ns/op on a single-core
//     host; near-linear tree mining on multi-core).
func BenchmarkE15_Mine(b *testing.B) {
	baskets := basketWorkload(3000, 20, 100, 3, 4, 11)
	for _, m := range []struct {
		name  string
		miner Miner
	}{
		{"apriori", AprioriMiner{}},
		{"fpgrowth", FPGrowth{}},
	} {
		b.Run("baskets/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := m.miner.Mine(baskets, 50)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Frequent) == 0 {
					b.Fatal("no frequent itemsets")
				}
			}
		})
	}

	dense := denseTxs(6000, 40, 10, 5)
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("fptree/procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			fp := FPGrowth{Workers: procs}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fp.Mine(dense, 300)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Frequent) == 0 {
					b.Fatal("no frequent itemsets")
				}
			}
		})
	}
}
