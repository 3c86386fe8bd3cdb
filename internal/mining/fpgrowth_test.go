package mining

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// FP-growth is pinned byte-identical to Apriori: same frequent
// itemsets, same supports, same representatives, same order. Apriori
// is the reference oracle (simple enough to trust by inspection);
// everything here is differential.

func sameResult(t *testing.T, ctx string, apriori, fp *Result) {
	t.Helper()
	if !reflect.DeepEqual(apriori, fp) {
		t.Fatalf("%s: FP-growth diverges from Apriori\napriori: %+v\nfpgrowth: %+v", ctx, apriori, fp)
	}
}

func TestFPGrowthMatchesAprioriBaskets(t *testing.T) {
	for ms := 1; ms <= 6; ms++ {
		ra, err := Apriori(basketTxs(), ms)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := FPGrowth{}.Mine(basketTxs(), ms)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "baskets", ra, rf)
	}
}

func TestFPGrowthErrorsAndEmpty(t *testing.T) {
	if _, err := (FPGrowth{}).Mine(nil, 0); err == nil {
		t.Error("minSupport 0 accepted")
	}
	res, err := FPGrowth{}.Mine(nil, 1)
	if err != nil || len(res.Frequent) != 0 {
		t.Errorf("empty mining: %v %v", res, err)
	}
	// Transactions with no items are legal and contribute to the count.
	res, err = FPGrowth{}.Mine([]Transaction{NewItemset(), NewItemset()}, 1)
	if err != nil || res.Transactions != 2 || len(res.Frequent) != 0 {
		t.Errorf("empty transactions: %+v %v", res, err)
	}
}

// TestFPGrowthRepresentatives pins the first-seen display casing:
// both engines must render a frequent item with the spelling of its
// first occurrence, even when later transactions vary the case.
func TestFPGrowthRepresentatives(t *testing.T) {
	txs := []Transaction{
		NewItemset(item("Data", "Referral")),
		NewItemset(item("data", "referral")),
		NewItemset(item("DATA", "REFERRAL")),
	}
	ra, err := Apriori(txs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := FPGrowth{}.Mine(txs, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "mixed case", ra, rf)
	if len(rf.Frequent) != 1 || rf.Frequent[0].Items[0].Attr != "Data" {
		t.Errorf("representative not first-seen: %+v", rf.Frequent)
	}
}

// TestFPGrowthWorkers pins determinism across pool sizes: the rank
// partition changes with the worker count, the output must not.
func TestFPGrowthWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	txs := randomTxs(rng, 60, 6, 4)
	want, err := FPGrowth{Workers: 1}.Mine(txs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, err := FPGrowth{Workers: w}.Mine(txs, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "workers", want, got)
	}
}

// randomTxs draws transactions over nAttrs attributes with nVals
// values each, dropping attributes at random so widths vary.
func randomTxs(rng *rand.Rand, n, nAttrs, nVals int) []Transaction {
	txs := make([]Transaction, 0, n)
	for i := 0; i < n; i++ {
		var items []Item
		for a := 0; a < nAttrs; a++ {
			if rng.Intn(3) == 0 {
				continue
			}
			items = append(items, Item{Attr: string(rune('a' + a)), Value: string(rune('0' + rng.Intn(nVals)))})
		}
		txs = append(txs, NewItemset(items...))
	}
	return txs
}

// Property: FP-growth equals Apriori on random transaction sets at
// every support level.
func TestFPGrowthVsAprioriProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		txs := randomTxs(rng, 40, 5, 3)
		for ms := 1; ms <= 5; ms++ {
			ra, err := Apriori(txs, ms)
			if err != nil {
				return false
			}
			rf, err := FPGrowth{}.Mine(txs, ms)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(ra, rf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzFPGrowthVsApriori feeds arbitrary byte-shaped baskets to both
// engines. Transactions are newline-separated; each byte is one item
// (the raw byte as the value, so case-folding representatives are
// exercised too).
func FuzzFPGrowthVsApriori(f *testing.F) {
	f.Add([]byte("abc\nbcd\nacd\nabd"), 2)
	f.Add([]byte("AB\nab\naB"), 1)
	f.Add([]byte("\n\nx"), 3)
	f.Add([]byte("milk bread\nbread beer"), 1)
	f.Fuzz(func(t *testing.T, data []byte, minSupport int) {
		if minSupport < 1 || minSupport > 8 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		var txs []Transaction
		var items []Item
		for _, c := range data {
			if c == '\n' {
				txs = append(txs, NewItemset(items...))
				items = items[:0]
				continue
			}
			items = append(items, Item{Attr: "i", Value: string(rune(c))})
		}
		txs = append(txs, NewItemset(items...))
		ra, errA := Apriori(txs, minSupport)
		rf, errF := FPGrowth{}.Mine(txs, minSupport)
		if (errA == nil) != (errF == nil) {
			t.Fatalf("error divergence: apriori %v, fpgrowth %v", errA, errF)
		}
		if errA == nil && !reflect.DeepEqual(ra, rf) {
			t.Fatalf("result divergence on %q ms=%d\napriori: %+v\nfpgrowth: %+v", data, minSupport, ra, rf)
		}
	})
}

// Mine implements Miner.
func (f FPGrowth) Mine(txs []Transaction, minSupport int) (*Result, error) {
	if minSupport < 1 {
		return nil, errMinSupport(minSupport)
	}
	t := newTxTable(defaultTableShards, false)
	for _, tx := range txs {
		t.foldTx(tx)
	}
	return finishResult(t, fpMine(t, minSupport, f.Workers), len(txs), minSupport), nil
}
