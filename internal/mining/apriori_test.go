package mining

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func item(attr, val string) Item { return Item{Attr: attr, Value: val} }

// classic toy basket data.
func basketTxs() []Transaction {
	mk := func(vals ...string) Transaction {
		items := make([]Item, len(vals))
		for i, v := range vals {
			items[i] = item("item", v)
		}
		return NewItemset(items...)
	}
	return []Transaction{
		mk("bread", "milk"),
		mk("bread", "diapers", "beer", "eggs"),
		mk("milk", "diapers", "beer", "cola"),
		mk("bread", "milk", "diapers", "beer"),
		mk("bread", "milk", "diapers", "cola"),
	}
}

func TestNewItemsetNormalizes(t *testing.T) {
	s := NewItemset(item("b", "2"), item("a", "1"), item("B", "2"))
	if len(s) != 2 {
		t.Fatalf("dedup failed: %v", s)
	}
	if s[0].Attr != "a" {
		t.Errorf("not sorted: %v", s)
	}
	if s.Key() != "a=1&b=2" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestContains(t *testing.T) {
	s := NewItemset(item("a", "1"), item("b", "2"), item("c", "3"))
	if !s.Contains(NewItemset(item("a", "1"), item("c", "3"))) {
		t.Error("subset not contained")
	}
	if s.Contains(NewItemset(item("a", "1"), item("d", "4"))) {
		t.Error("non-subset contained")
	}
	if !s.Contains(NewItemset()) {
		t.Error("empty set not contained")
	}
	if NewItemset().Contains(s) {
		t.Error("empty contains non-empty")
	}
}

func TestAprioriBaskets(t *testing.T) {
	res, err := Apriori(basketTxs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Known frequent items at support 3: bread(4), milk(4), diapers(4), beer(3).
	l1 := res.OfSize(1)
	if len(l1) != 4 {
		t.Fatalf("L1 = %v", l1)
	}
	want2 := map[string]int{
		"item=bread&item=diapers": 3,
		"item=bread&item=milk":    3,
		"item=diapers&item=milk":  3,
		"item=beer&item=diapers":  3,
	}
	l2 := res.OfSize(2)
	if len(l2) != len(want2) {
		t.Fatalf("L2 = %v", l2)
	}
	for _, f := range l2 {
		if want2[f.Items.Key()] != f.Support {
			t.Errorf("L2 %s support %d, want %d", f.Items, f.Support, want2[f.Items.Key()])
		}
	}
	if len(res.OfSize(3)) != 0 {
		t.Errorf("L3 = %v (no 3-set reaches support 3)", res.OfSize(3))
	}
	if res.Lookup(NewItemset(item("item", "bread"), item("item", "milk"))) != 3 {
		t.Error("Lookup failed")
	}
	if res.Lookup(NewItemset(item("item", "cola"))) != 0 {
		t.Error("infrequent Lookup should be 0")
	}
}

func TestAprioriMinSupportOne(t *testing.T) {
	res, err := Apriori(basketTxs(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Four of the five transactions contain exactly four items, and
	// no 4-itemset is shared, so L4 has four sets of support 1.
	if len(res.OfSize(4)) != 4 {
		t.Errorf("L4 = %v", res.OfSize(4))
	}
	if len(res.OfSize(5)) != 0 {
		t.Errorf("L5 = %v", res.OfSize(5))
	}
}

func TestAprioriErrorsAndEmpty(t *testing.T) {
	if _, err := Apriori(nil, 0); err == nil {
		t.Error("minSupport 0 accepted")
	}
	res, err := Apriori(nil, 1)
	if err != nil || len(res.Frequent) != 0 {
		t.Errorf("empty mining: %v %v", res, err)
	}
}

// Property: every subset of a frequent itemset is frequent with at
// least the same support (downward closure), checked on random data.
func TestDownwardClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var txs []Transaction
		for i := 0; i < 30; i++ {
			var items []Item
			for a := 0; a < 4; a++ {
				items = append(items, Item{Attr: string(rune('a' + a)), Value: string(rune('0' + rng.Intn(3)))})
			}
			txs = append(txs, NewItemset(items...))
		}
		res, err := Apriori(txs, 3)
		if err != nil {
			return false
		}
		support := map[string]int{}
		for _, fr := range res.Frequent {
			support[fr.Items.Key()] = fr.Support
		}
		for _, fr := range res.Frequent {
			if len(fr.Items) < 2 {
				continue
			}
			for skip := range fr.Items {
				sub := make(Itemset, 0, len(fr.Items)-1)
				sub = append(sub, fr.Items[:skip]...)
				sub = append(sub, fr.Items[skip+1:]...)
				if support[sub.Key()] < fr.Support {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Apriori's support counts equal a brute-force count for
// every reported itemset.
func TestSupportCountsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var txs []Transaction
		for i := 0; i < 25; i++ {
			var items []Item
			for a := 0; a < 3; a++ {
				if rng.Intn(2) == 0 {
					items = append(items, Item{Attr: string(rune('a' + a)), Value: string(rune('0' + rng.Intn(2)))})
				}
			}
			txs = append(txs, NewItemset(items...))
		}
		res, err := Apriori(txs, 2)
		if err != nil {
			return false
		}
		for _, fr := range res.Frequent {
			count := 0
			for _, tx := range txs {
				if tx.Contains(fr.Items) {
					count++
				}
			}
			if count != fr.Support {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestItemStrings(t *testing.T) {
	s := NewItemset(item("purpose", "registration"), item("data", "referral"))
	if got := s.String(); got != "{data=referral, purpose=registration}" || item("a", "b").String() != "a=b" {
		t.Errorf("render: %q", got)
	}
}

// Transaction is one basket of items (one audit row in PRIMA's use).
type Transaction = Itemset

// Miner is a frequent-itemset mining engine. Apriori and FP-growth
// both satisfy it and are differentially tested to produce identical
// Results on every input.
type Miner interface {
	Mine(txs []Transaction, minSupport int) (*Result, error)
}

// AprioriMiner is the levelwise generate-and-test engine behind the
// Apriori function, as a Miner.
type AprioriMiner struct{}

// NewItemset builds a normalized itemset (sorted, deduplicated; the
// last spelling of a duplicated key wins). Keys are computed once per
// item, not per comparison.
func NewItemset(items ...Item) Itemset {
	type keyed struct {
		key string
		it  Item
	}
	ks := make([]keyed, 0, len(items))
	idx := make(map[string]int, len(items))
	for _, it := range items {
		k := it.key()
		if i, ok := idx[k]; ok {
			ks[i].it = it
			continue
		}
		idx[k] = len(ks)
		ks = append(ks, keyed{key: k, it: it})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make(Itemset, len(ks))
	for i, k := range ks {
		out[i] = k.it
	}
	return out
}

// Contains reports whether s contains every item of sub.
func (s Itemset) Contains(sub Itemset) bool {
	i := 0
	for _, it := range sub {
		k := it.key()
		for {
			if i >= len(s) {
				return false
			}
			sk := s[i].key()
			if sk < k {
				i++
				continue
			}
			if sk != k {
				return false
			}
			break
		}
	}
	return true
}

// Mine implements Miner.
func (AprioriMiner) Mine(txs []Transaction, minSupport int) (*Result, error) {
	return Apriori(txs, minSupport)
}

// Apriori mines all itemsets with support >= minSupport (absolute
// count). It is the levelwise algorithm of Agrawal & Srikant: L1 from
// a scan, then candidate generation by joining L(k-1) with itself,
// pruning candidates with any infrequent (k-1)-subset, and a support
// scan per level — run over interned ids and weighted distinct
// transactions. It is kept as the reference oracle for FP-growth.
func Apriori(txs []Transaction, minSupport int) (*Result, error) {
	if minSupport < 1 {
		return nil, errMinSupport(minSupport)
	}
	t := newTxTable(1, false)
	for _, tx := range txs {
		t.foldTx(tx)
	}
	return finishResult(t, aprioriMine(t, minSupport), len(txs), minSupport), nil
}

// foldTx folds one public Transaction (weight 1, no evidence).
func (t *txTable) foldTx(tx Transaction) {
	ids := t.scratchIDs[:0]
	for _, it := range tx {
		ids = append(ids, t.in.intern(it))
	}
	t.scratchIDs = ids
	t.foldIDs(ids, 1, "", time.Time{})
}

// Lookup returns the support of the given itemset, 0 if infrequent.
func (r *Result) Lookup(s Itemset) int {
	key := s.Key()
	for _, f := range r.Frequent {
		if f.Items.Key() == key {
			return f.Support
		}
	}
	return 0
}

// OfSize returns the frequent itemsets with exactly k items.
func (r *Result) OfSize(k int) []Frequent {
	var out []Frequent
	for _, f := range r.Frequent {
		if len(f.Items) == k {
			out = append(out, f)
		}
	}
	return out
}
