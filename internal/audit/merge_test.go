package audit

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/vocab"
)

// refCursor is one source's time-sorted entries and its read position
// in refConsolidate's merge.
type refCursor struct {
	entries []Entry
	pos     int
	src     int
}

// refHeap is a min-heap of cursors by the time of their next entry,
// ties to the lower source index.
type refHeap []*refCursor

func (h refHeap) less(i, j int) bool {
	ti, tj := h[i].entries[h[i].pos].Time, h[j].entries[h[j].pos].Time
	if ti.Equal(tj) {
		return h[i].src < h[j].src
	}
	return ti.Before(tj)
}

func (h refHeap) siftDown(i int) {
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if r := least + 1; r < len(h) && h.less(r, least) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// refConsolidate is the entry-level consolidation: each source's
// entries in time order (same-instant entries in append order), merged
// by a heap of entry cursors, and deduplicated with a peek at the next
// minimum to skip the window maps for a solo instant. It is the oracle
// for Consolidate's record merge.
func refConsolidate(sources [][]Entry) Result {
	var h refHeap
	for i, es := range sources {
		if len(es) > 0 {
			h = append(h, &refCursor{entries: es, src: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	var res Result
	seen := make(map[replicaKey]bool)
	byEvent := make(map[eventKey]int)
	var curUnix int64
	window := false
	for len(h) > 0 {
		c := h[0]
		e := c.entries[c.pos]
		if c.pos++; c.pos == len(c.entries) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.siftDown(0)

		unix := e.Time.UnixNano()
		if (!window || unix != curUnix) && (len(h) == 0 || !h[0].entries[h[0].pos].Time.Equal(e.Time)) {
			window = false
			curUnix = unix
			res.Entries = append(res.Entries, e)
			continue
		}
		if !window || unix != curUnix {
			window = true
			curUnix = unix
			clear(seen)
			clear(byEvent)
		}
		rk := replicaKey{
			op:   e.Op,
			user: vocab.Norm(e.User), data: vocab.Norm(e.Data),
			purpose: vocab.Norm(e.Purpose), authorized: vocab.Norm(e.Authorized),
			status: e.Status,
		}
		if seen[rk] {
			res.Duplicates++
			continue
		}
		seen[rk] = true
		ek := eventKey{user: e.User, data: e.Data, purpose: e.Purpose}
		if i, ok := byEvent[ek]; ok && (res.Entries[i].Op != e.Op || res.Entries[i].Status != e.Status) {
			res.Conflicts = append(res.Conflicts, Conflict{A: res.Entries[i], B: e})
		} else {
			byEvent[ek] = len(res.Entries)
		}
		res.Entries = append(res.Entries, e)
	}
	return res
}

// refByTime is a log's entries as refConsolidate takes them.
func refByTime(l *Log) []Entry {
	es := l.Snapshot()
	SortByTime(es)
	return es
}

// resultBytes renders a consolidation byte for byte: the merged
// entries, the duplicate count, then both sides of each conflict.
func resultBytes(t *testing.T, r Result) []byte {
	t.Helper()
	var b bytes.Buffer
	b.Write(jsonlBytes(t, r.Entries))
	fmt.Fprintf(&b, "duplicates=%d\n", r.Duplicates)
	for _, c := range r.Conflicts {
		b.Write(jsonlBytes(t, []Entry{c.A, c.B}))
	}
	return b.Bytes()
}

// fedCorpus draws n entries over few instants, users and zones, so
// same-instant entries across and within sites are common, and adds
// replicas of earlier entries: exact copies (duplicates), copies with
// another outcome (conflicts) and copies whose user differs in case
// only (duplicates under vocab.Norm, distinct events).
func fedCorpus(rng *rand.Rand, n int) []Entry {
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("EST", -5*3600),
		time.FixedZone("", 3600),
		time.FixedZone("", -5*3600),
	}
	base := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	out := make([]Entry, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(4) == 0 {
			e := out[rng.Intn(len(out))]
			switch rng.Intn(4) {
			case 0:
				e.Op = 1 - e.Op
			case 1:
				e.Status = 1 - e.Status
			case 2:
				e.User = strings.ToUpper(e.User)
			}
			e.Site = fmt.Sprintf("site-%d", rng.Intn(3))
			out = append(out, e)
			continue
		}
		out = append(out, Entry{
			Time:       base.Add(time.Duration(rng.Intn(n/3+1)) * time.Second).In(zones[rng.Intn(len(zones))]),
			Op:         Op(rng.Intn(2)),
			User:       fmt.Sprintf("user-%d", rng.Intn(4)),
			Data:       fmt.Sprintf("data-%d", rng.Intn(3)),
			Purpose:    fmt.Sprintf("purpose-%d", rng.Intn(2)),
			Authorized: fmt.Sprintf("role-%d", rng.Intn(2)),
			Status:     Status(rng.Intn(2)),
			Site:       fmt.Sprintf("site-%d", rng.Intn(3)),
		})
	}
	return out
}

// TestConsolidateMatchesEntryMerge checks Consolidate against the
// entry-level oracle, byte for byte, over random federations: one to
// five sites, some empty, some durable with part of their log behind a
// checkpoint cut, sharing instants, replicas and conflicts.
func TestConsolidateMatchesEntryMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var durable, dups, conflicts int
	for trial := 0; trial < 40; trial++ {
		sites := 1 + rng.Intn(5)
		corpus := fedCorpus(rng, 20+rng.Intn(400))
		logs := make([]*Log, sites)
		ref := make([][]Entry, sites)
		for i := range logs {
			var es []Entry
			if rng.Intn(6) > 0 {
				for _, e := range corpus {
					if rng.Intn(sites) == 0 {
						es = append(es, e)
					}
				}
			}
			if rng.Intn(3) > 0 {
				logs[i] = mkLog(t, fmt.Sprintf("s%d", i), es...)
				ref[i] = refByTime(logs[i])
				continue
			}
			durable++
			d, _, err := OpenDurable(fmt.Sprintf("s%d", i), t.TempDir(), DurableOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cut := rng.Intn(len(es) + 1)
			if err := d.Append(es[:cut]...); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := d.Append(es[cut:]...); err != nil {
				t.Fatal(err)
			}
			logs[i] = d.Log()
			if ref[i], err = d.SnapshotRange(time.Time{}, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		got, want := NewFederation(logs...).Consolidate(), refConsolidate(ref)
		if !bytes.Equal(resultBytes(t, got), resultBytes(t, want)) {
			t.Fatalf("trial %d (%d sites): consolidation diverges from the entry merge:\n got %d entries, %d duplicates, %d conflicts\nwant %d entries, %d duplicates, %d conflicts",
				trial, sites, len(got.Entries), got.Duplicates, len(got.Conflicts),
				len(want.Entries), want.Duplicates, len(want.Conflicts))
		}
		dups += want.Duplicates
		conflicts += len(want.Conflicts)
	}
	if durable == 0 || dups == 0 || conflicts == 0 {
		t.Fatalf("corpus too tame: %d durable sources, %d duplicates, %d conflicts", durable, dups, conflicts)
	}
}

// TestMergeOrder checks merge against a sort of every record by (key,
// src, seq), for each order and run count: records share keys across
// and within runs, runs come unsorted and some empty, and each record
// is emitted with its own run's dictionary.
func TestMergeOrder(t *testing.T) {
	type tagged struct {
		r   record
		src int
		d   *dict
	}
	rng := rand.New(rand.NewSource(7))
	for _, o := range []order{bySeq, byTime} {
		for _, k := range []int{1, 2, 16, 33} {
			runs := make([]run, k)
			var all []tagged
			seq := uint64(0)
			for i := range runs {
				rn := &runs[i]
				rn.src = rng.Intn(4)
				if rng.Intn(5) == 0 {
					continue
				}
				for j := rng.Intn(200); j > 0; j-- {
					seq += 1 + uint64(rng.Intn(3))
					r := record{seq: seq, ns: int64(rng.Intn(50)-25) * 1e9}
					rn.recs = append(rn.recs, r)
					all = append(all, tagged{r: r, src: rn.src, d: &rn.d})
				}
				rng.Shuffle(len(rn.recs), func(a, b int) { rn.recs[a], rn.recs[b] = rn.recs[b], rn.recs[a] })
			}
			slices.SortFunc(all, func(a, b tagged) int {
				if c := cmp.Compare(o.key(&a.r), o.key(&b.r)); c != 0 {
					return c
				}
				if c := cmp.Compare(a.src, b.src); c != 0 {
					return c
				}
				return cmp.Compare(a.r.seq, b.r.seq)
			})
			var got []tagged
			merge(runs, o, func(d *dict, r *record) { got = append(got, tagged{r: *r, d: d}) })
			if len(got) != len(all) {
				t.Fatalf("order %d, %d runs: %d records merged, want %d", o, k, len(got), len(all))
			}
			for i := range all {
				if got[i].r != all[i].r || got[i].d != all[i].d {
					t.Fatalf("order %d, %d runs: record %d is seq %d, want seq %d (or with another run's dictionary)",
						o, k, i, got[i].r.seq, all[i].r.seq)
				}
			}
		}
	}
}

// mergeSink keeps the benchmarked merges live.
var mergeSink uint64

// BenchmarkMerge merges 100k records (10k with -short), spread evenly
// over 1, 2, 16 and 32 time-sorted runs, by time: the cost of the
// merge alone, its emit counting seqs.
func BenchmarkMerge(b *testing.B) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	for _, k := range []int{1, 2, 16, 32} {
		b.Run(fmt.Sprintf("runs=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			runs := make([]run, k)
			for i := 0; i < n; i++ {
				rn := &runs[rng.Intn(k)]
				rn.recs = append(rn.recs, record{seq: uint64(i + 1), ns: int64(i/4) * 1e6})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				merge(runs, byTime, func(_ *dict, r *record) { mergeSink += r.seq })
			}
		})
	}
}
