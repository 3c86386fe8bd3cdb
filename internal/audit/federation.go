package audit

import (
	"fmt"

	"repro/internal/vocab"
)

// Federation consolidates several site audit logs into one consistent
// view (paper §4.2: "these logs are either periodically replicated or
// PRIMA-enabled, by the construction of a consistent consolidated view
// of them"). Consolidation merges chronologically, removes duplicate
// replicas of the same event, and reports conflicts — replicas that
// share an identity instant but disagree on the recorded outcome,
// which indicates clock or logging faults at a site.
type Federation struct {
	sources []*Log
}

// NewFederation builds a federation over the given source logs. A
// durable site joins through Durable.Log, whose readers merge the
// checkpointed prefix from its index.
func NewFederation(sources ...*Log) *Federation {
	return &Federation{sources: append([]*Log(nil), sources...)}
}

// Sources returns the number of federated logs.
func (f *Federation) Sources() int { return len(f.sources) }

// Conflict records two same-instant, same-actor, same-object entries
// whose outcomes disagree across sites.
type Conflict struct {
	A, B Entry
}

// String renders the conflict.
func (c Conflict) String() string {
	return fmt.Sprintf("conflict between site %q and site %q: %s vs %s", c.A.Site, c.B.Site, c.A, c.B)
}

// Result is the outcome of a consolidation.
type Result struct {
	Entries    []Entry    // merged, chronological, deduplicated
	Duplicates int        // identical replicas removed
	Conflicts  []Conflict // same event identity, different outcome
}

// replicaKey is the identity of an entry within one instant: two
// same-instant entries with equal replicaKeys are replicas of the same
// event. The timestamp is not part of the key — the merge emits
// entries in time order, so dedup state is scoped to the current
// instant and cleared when time advances. A comparable struct key
// replaces the per-row string formatting of the previous
// implementation.
type replicaKey struct {
	op         Op
	user       string
	data       string
	purpose    string
	authorized string
	status     Status
}

func (d *dict) replicaKey(r *record) replicaKey {
	return replicaKey{
		op:   Op(r.op),
		user: vocab.Norm(d.strs[r.user]), data: vocab.Norm(d.strs[r.data]),
		purpose: vocab.Norm(d.strs[r.purpose]), authorized: vocab.Norm(d.strs[r.authorized]),
		status: Status(r.status),
	}
}

// eventKey is the same-instant identity without the outcome, for
// conflict detection.
type eventKey struct {
	user    string
	data    string
	purpose string
}

func (d *dict) eventKey(r *record) eventKey {
	return eventKey{user: d.strs[r.user], data: d.strs[r.data], purpose: d.strs[r.purpose]}
}

// Consolidate builds the consolidated view: one k-way merge of every
// source's records (each shard's run and a durable log's checkpointed
// prefix), by instant, then source index, then sequence number, so
// out-of-order appends at a site are tolerated. Entries that are
// byte-identical in the seven schema columns are treated as replicas
// of the same event and collapsed; entries that agree on (time, user,
// data, purpose) but disagree on op or status are kept and reported as
// conflicts.
func (f *Federation) Consolidate() Result {
	var runs []run
	total := 0
	for i, l := range f.sources {
		for _, rn := range l.allRuns() {
			rn.src = i
			runs = append(runs, rn)
			total += len(rn.recs)
		}
	}

	var res Result
	res.Entries = make([]Entry, 0, total)
	// Dedup and conflict state is scoped to the current instant: the
	// merge emits records in time order and both identities include
	// the timestamp, so entries at different instants can never
	// collide. The window maps stay as small as the widest instant
	// instead of growing to the full consolidated size.
	seen := make(map[replicaKey]bool)
	byEvent := make(map[eventKey]int) // -> index into res.Entries
	// The current instant's first record, and its dictionary.
	var firstR *record
	var firstD *dict
	window := false

	merge(runs, byTime, func(d *dict, r *record) {
		// An instant's first entry can be neither a replica nor a
		// conflict: emit it without touching the window maps.
		if firstR == nil || r.ns != firstR.ns {
			firstD, firstR, window = d, r, false
			res.Entries = append(res.Entries, d.entry(r))
			return
		}
		if !window {
			// A second entry at the instant opens its window, entering
			// the first one as if the maps had seen it arrive.
			window = true
			clear(seen)
			clear(byEvent)
			seen[firstD.replicaKey(firstR)] = true
			byEvent[firstD.eventKey(firstR)] = len(res.Entries) - 1
		}

		rk := d.replicaKey(r)
		if seen[rk] {
			res.Duplicates++
			return
		}
		seen[rk] = true

		e := d.entry(r)
		ek := d.eventKey(r)
		if i, ok := byEvent[ek]; ok && (res.Entries[i].Op != e.Op || res.Entries[i].Status != e.Status) {
			res.Conflicts = append(res.Conflicts, Conflict{A: res.Entries[i], B: e})
		} else {
			byEvent[ek] = len(res.Entries)
		}
		res.Entries = append(res.Entries, e)
	})
	return res
}

// ConsolidateLog consolidates into a fresh Log named site.
func (f *Federation) ConsolidateLog(site string) (*Log, Result) {
	res := f.Consolidate()
	l := NewLog(site)
	// Entries already validated at their sources; bulkLoad shards and
	// indexes them while preserving the consolidated order as the new
	// log's append order.
	l.bulkLoad(res.Entries)
	return l, res
}
