package audit

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/vocab"
)

// Retention implements the paper's §4.2 concern about "increased
// storage demand" of always-on compliance auditing: logs are kept for
// a training/compliance window and expired beyond it, optionally
// after being archived through a codec.

// Expire removes entries older than cutoff, returning how many were
// dropped. It never drops exception-based entries younger than
// exceptionCutoff, because undiscovered informal practice is exactly
// what refinement still needs; pass the zero time to expire
// uniformly. Shards are trimmed one at a time, each rebuilding its
// dictionary and incremental index under its own lock; when anything
// is dropped the index epoch advances, invalidating outstanding Delta
// cursors. A durable log expires through its store (Durable.Expire),
// whose errors go to OnErr.
func (l *Log) Expire(cutoff, exceptionCutoff time.Time) int {
	keep := retention(cutoff, exceptionCutoff)
	if d := l.cold; d != nil {
		n, err := d.retain(keep, nil)
		if err != nil {
			d.report(err)
		}
		return n
	}
	return l.trimShards(func(r *record) bool { return keep(r.ns, Status(r.status)) }, nil, nil)
}

// retention is Expire's rule: whether an entry at ns nanoseconds with
// status st survives the cutoffs.
func retention(cutoff, exceptionCutoff time.Time) func(ns int64, st Status) bool {
	before, exBefore := newCutoff(cutoff), newCutoff(exceptionCutoff)
	uniform := exceptionCutoff.IsZero()
	return func(ns int64, st Status) bool {
		return !before.before(ns) || (!uniform && st == Exception && !exBefore.before(ns))
	}
}

// Rotate atomically returns and removes every entry older than
// cutoff, for archival; callers typically hand the result to
// WriteJSONL before discarding it. The rotated entries come back in
// append order. Like Expire, a non-empty rotation advances the index
// epoch.
func (l *Log) Rotate(cutoff time.Time) []Entry {
	before := newCutoff(cutoff)
	var runs []run
	collect := func(rotated run) { runs = append(runs, rotated) }
	if d := l.cold; d != nil {
		keep := func(ns int64, _ Status) bool { return !before.before(ns) }
		if _, err := d.retain(keep, collect); err != nil {
			d.report(err)
		}
	} else {
		l.trimShards(func(r *record) bool { return !before.before(r.ns) }, collect, nil)
	}
	if len(runs) == 0 {
		return nil
	}
	return mergeEntries(runs, bySeq)
}

// anyRejected reports whether some shard record fails keep.
func (l *Log) anyRejected(keep func(r *record) bool) bool {
	for _, sh := range l.shards {
		sh.mu.RLock()
		for i := range sh.recs {
			if !keep(&sh.recs[i]) {
				sh.mu.RUnlock()
				return true
			}
		}
		sh.mu.RUnlock()
	}
	return false
}

// trimShards keeps, shard by shard under its write lock, the records
// keep accepts, and returns how many it dropped. A shard that loses
// records gets a fresh dictionary and index holding only its
// survivors, and when removed is non-nil it receives the dropped
// records with the dictionary they index; the first such change moves
// the epoch before it happens, so a reader that observes a trimmed
// shard sees the move. A durable log passes cold: per shard, the
// index state its surviving checkpointed entries fold to (see
// Durable.retain, which moves the epoch itself). Every shard is then
// rebuilt on top of it.
func (l *Log) trimShards(keep func(r *record) bool, removed func(run), cold []*shard) int {
	dropped := 0
	for i, sh := range l.shards {
		sh.mu.Lock()
		n := 0
		for j := range sh.recs {
			if keep(&sh.recs[j]) {
				n++
			}
		}
		if n == len(sh.recs) && cold == nil {
			sh.mu.Unlock()
			continue
		}
		if dropped == 0 && cold == nil {
			l.epoch.Add(1)
		}
		dropped += len(sh.recs) - n
		fresh := &shard{}
		if cold != nil {
			fresh = cold[i]
		}
		// A value or zone no surviving record uses is gone from memory
		// with its entries: an expired user's name or break-glass
		// reason does not outlive them.
		kept := make([]record, 0, n)
		var gone []record
		for _, r := range sh.recs {
			if !keep(&r) {
				gone = append(gone, r)
				continue
			}
			fresh.reintern(&r, &sh.dict)
			fresh.indexLocked(&r)
			kept = append(kept, r)
		}
		if removed != nil && len(gone) > 0 {
			removed(run{recs: gone, d: sh.dict})
		}
		sh.recs, sh.dict, sh.groups, sh.stats = kept, fresh.dict, fresh.groups, fresh.stats
		sh.gen++
		sh.mu.Unlock()
	}
	return dropped
}

// Count is a (value, count) pair used by the analysis helpers.
type Count struct {
	Value string
	N     int
}

// topCounts aggregates entries by a key and returns the top n counts
// (ties broken by value for determinism).
func topCounts(entries []Entry, n int, key func(Entry) string) []Count {
	m := make(map[string]int)
	for _, e := range entries {
		m[key(e)]++
	}
	out := make([]Count, 0, len(m))
	for v, c := range m {
		out = append(out, Count{Value: v, N: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Value < out[j].Value
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TopData returns the most accessed data categories.
func TopData(entries []Entry, n int) []Count {
	return topCounts(entries, n, func(e Entry) string { return vocab.Norm(e.Data) })
}

// ExceptionRateByRole reports, per role, the fraction of accesses
// that were exception-based — the per-role "break-the-glass pressure"
// a privacy officer watches between refinement rounds.
func ExceptionRateByRole(entries []Entry) map[string]float64 {
	total := make(map[string]int)
	exceptions := make(map[string]int)
	for _, e := range entries {
		role := vocab.Norm(e.Authorized)
		total[role]++
		if e.Status == Exception {
			exceptions[role]++
		}
	}
	out := make(map[string]float64, len(total))
	for role, n := range total {
		out[role] = float64(exceptions[role]) / float64(n)
	}
	return out
}

// String renders the count.
func (c Count) String() string { return fmt.Sprintf("%s: %d", c.Value, c.N) }
