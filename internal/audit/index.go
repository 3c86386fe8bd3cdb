package audit

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/vocab"
)

// Incremental refinement index. Every append folds the entry into its
// shard's per-group and per-log accumulators under the same lock as
// the entry itself, so downstream analytics — the Algorithm 4
// GROUP BY … HAVING pass, row-level coverage, and Summarize — read
// O(groups) merged state instead of rescanning O(entries) rows. The
// same fold keeps what the privacy officer's reads need: each group's
// first sequence number orders the audit policy P_AL (GroupsPolicy),
// and per-user practice counts, the off-hours count and the set of
// active days are the §4.2 evidence features (core.GroupEvidence).
//
// Groups are keyed by the raw (data, purpose, authorized) triple,
// matching the SQL extractor's GROUP BY semantics exactly (the SQL
// engine groups by stored column bytes, not normalized values); each
// group caches the canonical rule key once for coverage membership
// tests. Per-group distinct users count raw user values, mirroring
// SQL COUNT(DISTINCT user); the log-wide Stats normalize users,
// mirroring Summarize.

// groupKey is the raw GROUP BY identity of the default analysis
// attribute set (data, purpose, authorized).
type groupKey struct {
	data       string
	purpose    string
	authorized string
}

// groupAcc is one shard's accumulator for a group.
type groupAcc struct {
	canon    string         // canonical rule key, computed once
	firstSeq uint64         // lowest sequence number over all rows
	total    int            // all rows in the group
	practice int            // rows surviving Filter (exception + allow)
	users    map[string]int // raw user -> practice rows
	offHours int            // practice rows with OffHours(time)
	days     []int32        // distinct UTCDay of practice rows, ascending
	first    time.Time      // practice window
	last     time.Time
}

// OffHours reports whether t falls outside 06:00–18:00 on the clock of
// t's own zone: the evidence feature for access outside the working
// day.
func OffHours(t time.Time) bool {
	h := t.Hour()
	return h < 6 || h >= 18
}

// UTCDay numbers t's calendar day in UTC, counted from the Unix epoch;
// distinct day numbers are distinct active days.
func UTCDay(t time.Time) int32 {
	s := t.Unix()
	d := s / 86400
	if s%86400 < 0 {
		d--
	}
	return int32(d)
}

// addDay inserts d into the ascending set days. Appends arrive in
// roughly time order, so the common cases are a repeat of the last day
// or a new last day.
func addDay(days []int32, d int32) []int32 {
	if n := len(days); n == 0 || days[n-1] < d {
		return append(days, d)
	}
	i, found := slices.BinarySearch(days, d)
	if found {
		return days
	}
	return slices.Insert(days, i, d)
}

// unionDays returns the union of the ascending sets a and b in new
// storage.
func unionDays(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// statsAcc is one shard's Stats accumulator.
type statsAcc struct {
	total      int
	allowed    int
	denied     int
	exceptions int
	regular    int
	users      map[string]struct{} // raw; normalized at read by Summary
	first      time.Time
	last       time.Time
}

// indexLocked folds one stamped entry into the shard's accumulators;
// the shard lock must be held. Users are recorded raw and normalized
// on the O(users) read side instead of the O(entries) write side —
// normalize(union raw) equals union(normalize) so Summary is
// unchanged.
func (s *shard) indexLocked(se *stamped) {
	e := &se.e
	st := &s.stats
	st.total++
	if e.Op == Allow {
		st.allowed++
	} else {
		st.denied++
	}
	if e.Status == Exception {
		st.exceptions++
	} else {
		st.regular++
	}
	if st.users == nil {
		st.users = make(map[string]struct{})
	}
	st.users[e.User] = struct{}{}
	if st.first.IsZero() || e.Time.Before(st.first) {
		st.first = e.Time
	}
	if e.Time.After(st.last) {
		st.last = e.Time
	}

	if s.groups == nil {
		s.groups = make(map[groupKey]*groupAcc)
	}
	k := groupKey{data: e.Data, purpose: e.Purpose, authorized: e.Authorized}
	g := s.groups[k]
	if g == nil {
		g = &groupAcc{canon: e.RuleKey(), firstSeq: se.seq}
		s.groups[k] = g
	} else if se.seq < g.firstSeq {
		g.firstSeq = se.seq
	}
	g.total++
	if e.Status == Exception && e.Op == Allow {
		g.practice++
		if g.users == nil {
			g.users = make(map[string]int)
		}
		g.users[e.User]++
		if OffHours(e.Time) {
			g.offHours++
		}
		g.days = addDay(g.days, UTCDay(e.Time))
		if g.first.IsZero() || e.Time.Before(g.first) {
			g.first = e.Time
		}
		if e.Time.After(g.last) {
			g.last = e.Time
		}
	}
}

// rebuildLocked recomputes the shard's accumulators from its entries
// after a structural change (Expire/Rotate); the shard lock must be
// held.
func (s *shard) rebuildLocked() {
	s.groups = nil
	s.stats = statsAcc{}
	for i := range s.entries {
		s.indexLocked(&s.entries[i])
	}
}

// Group is the merged, read-only view of one (data, purpose,
// authorized) group across all shards.
type Group struct {
	Data       string // raw column values, the GROUP BY identity
	Purpose    string
	Authorized string
	Key        string // canonical rule key (policy.TripleKey)

	FirstSeq      uint64 // lowest sequence number among all rows
	Total         int    // all rows in the group
	Practice      int    // rows surviving Filter (exception-based allows)
	PracticeUsers int    // distinct raw users among practice rows
	First         time.Time
	Last          time.Time // practice window; zero when Practice == 0

	// The §4.2 evidence features of the practice rows; Users and Days
	// are nil when Practice == 0.
	Users    map[string]int // raw user -> practice rows
	OffHours int            // practice rows with OffHours(time)
	Days     []int32        // distinct UTCDay values, ascending
}

// Rule converts the group identity into a ground rule, term order
// matching the default analysis attributes.
func (g Group) Rule() (policy.Rule, error) {
	return policy.NewRule(
		policy.T("data", g.Data),
		policy.T("purpose", g.Purpose),
		policy.T("authorized", g.Authorized),
	)
}

// Groups merges the per-shard accumulators into one deterministic
// view, sorted by the raw group identity. Cost is O(groups), not
// O(entries): this is the read side of the incremental index.
func (l *Log) Groups() []Group { return MergeGroups(l) }

// MergeGroups merges the incremental per-rule indexes of several logs
// into one deterministic cross-log view, sorted by the raw group
// identity — the federated analytics feed: a consolidator holding one
// log per site reads combined groups (summed counts and user counts,
// unioned active days, widened practice windows) in O(groups) without
// materializing a merged entry stream. MergeGroups(l) is exactly
// l.Groups(). FirstSeq is the minimum over the logs, so it orders
// rules only within one log.
func MergeGroups(logs ...*Log) []Group {
	acc := make(map[groupKey]*Group)
	for _, l := range logs {
		for _, sh := range l.shards {
			sh.mu.RLock()
			for k, g := range sh.groups {
				m := acc[k]
				if m == nil {
					m = &Group{Data: k.data, Purpose: k.purpose, Authorized: k.authorized,
						Key: g.canon, FirstSeq: g.firstSeq}
					acc[k] = m
				}
				if g.firstSeq < m.FirstSeq {
					m.FirstSeq = g.firstSeq
				}
				m.Total += g.total
				m.Practice += g.practice
				m.OffHours += g.offHours
				if len(g.users) > 0 {
					if m.Users == nil {
						m.Users = make(map[string]int, len(g.users))
					}
					for u, n := range g.users {
						m.Users[u] += n
					}
				}
				if len(g.days) > 0 {
					m.Days = unionDays(m.Days, g.days)
				}
				if !g.first.IsZero() && (m.First.IsZero() || g.first.Before(m.First)) {
					m.First = g.first
				}
				if g.last.After(m.Last) {
					m.Last = g.last
				}
			}
			sh.mu.RUnlock()
		}
	}
	out := make([]Group, 0, len(acc))
	for _, m := range acc {
		m.PracticeUsers = len(m.Users)
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Data != out[j].Data {
			return out[i].Data < out[j].Data
		}
		if out[i].Purpose != out[j].Purpose {
			return out[i].Purpose < out[j].Purpose
		}
		return out[i].Authorized < out[j].Authorized
	})
	return out
}

// GroupsPolicy builds the audit policy P_AL from index groups: one
// ground rule per group, added in FirstSeq order, so for one log's
// groups it holds the same rules in the same order as
// ToPolicy(name, l.Snapshot()) — raw values that normalize to one rule
// keep the spelling of the earliest row, as ToPolicy's set semantics
// do. Algorithm 1's gap listing follows that rule order.
func GroupsPolicy(name string, groups []Group) *policy.Policy {
	order := make([]*Group, len(groups))
	for i := range groups {
		order[i] = &groups[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].FirstSeq < order[j].FirstSeq })
	p := policy.New(name)
	for _, g := range order {
		r, err := g.Rule()
		if err != nil {
			// Append validates every identity column non-blank, so an
			// indexed group always forms a rule.
			panic(fmt.Sprintf("audit: group rule: %v", err))
		}
		p.Add(r)
	}
	return p
}

// PracticeGroup is one shard's accumulator for a (data, purpose,
// authorized) group restricted to practice rows (exception-based
// allows) — the transaction feed for index-fed mining. Unlike Group
// it is NOT merged across shards: mining engines fold the per-shard
// slices into their own sharded transaction tables concurrently, and
// the weighted fold makes the merge implicit.
type PracticeGroup struct {
	Data       string // raw column values, the GROUP BY identity
	Purpose    string
	Authorized string

	Weight int       // practice rows in the group within this shard
	Users  []string  // distinct raw users among those rows, sorted
	First  time.Time // practice window within this shard
	Last   time.Time
}

// PracticeShards returns the practice groups per audit shard, each
// shard's slice sorted by the raw group identity. Cost is O(groups),
// not O(entries); only groups with at least one practice row appear.
// This is the shard-parallel feed for mining extractors that can run
// from the incremental index instead of a materialized snapshot.
func (l *Log) PracticeShards() [][]PracticeGroup {
	out := make([][]PracticeGroup, len(l.shards))
	for i, sh := range l.shards {
		sh.mu.RLock()
		gs := make([]PracticeGroup, 0, len(sh.groups))
		for k, g := range sh.groups {
			if g.practice == 0 {
				continue
			}
			users := make([]string, 0, len(g.users))
			for u := range g.users {
				users = append(users, u)
			}
			sort.Strings(users)
			gs = append(gs, PracticeGroup{
				Data:       k.data,
				Purpose:    k.purpose,
				Authorized: k.authorized,
				Weight:     g.practice,
				Users:      users,
				First:      g.first,
				Last:       g.last,
			})
		}
		sh.mu.RUnlock()
		sort.Slice(gs, func(a, b int) bool {
			if gs[a].Data != gs[b].Data {
				return gs[a].Data < gs[b].Data
			}
			if gs[a].Purpose != gs[b].Purpose {
				return gs[a].Purpose < gs[b].Purpose
			}
			return gs[a].Authorized < gs[b].Authorized
		})
		out[i] = gs
	}
	return out
}

// Summary returns the log-wide Stats from the incremental index in
// O(shards + users) — equivalent to Summarize(l.Snapshot()) without
// materializing a snapshot.
func (l *Log) Summary() Stats {
	var s Stats
	users := make(map[string]struct{})
	for _, sh := range l.shards {
		sh.mu.RLock()
		st := &sh.stats
		s.Total += st.total
		s.Allowed += st.allowed
		s.Denied += st.denied
		s.Exceptions += st.exceptions
		s.Regular += st.regular
		for u := range st.users {
			users[vocab.Norm(u)] = struct{}{}
		}
		if !st.first.IsZero() && (s.First.IsZero() || st.first.Before(s.First)) {
			s.First = st.first
		}
		if st.last.After(s.Last) {
			s.Last = st.last
		}
		sh.mu.RUnlock()
	}
	s.Users = len(users)
	return s
}

// Cursor marks a read position in the log for O(delta) consumption:
// the per-shard entry counts at the time of the last read, tied to
// the index epoch. The zero Cursor reads from the start. A cursor
// taken before a structural change (Reset/Expire/Rotate) is detected
// via the epoch and triggers a resync from the start.
type Cursor struct {
	epoch uint64
	pos   []int
}

// Delta returns the entries appended since the cursor, in append
// order, plus the advanced cursor. resync reports that the cursor
// was stale (zero, wrong epoch, or wrong shape) and the returned
// entries restart from the beginning of the log — consumers keeping
// derived state must discard it when resync is true.
func (l *Log) Delta(c Cursor) (delta []Entry, next Cursor, resync bool) {
	ep := l.epoch.Load()
	resync = c.pos == nil || c.epoch != ep || len(c.pos) != len(l.shards)
	next = Cursor{epoch: ep, pos: make([]int, len(l.shards))}
	var buf []stamped
	for i, sh := range l.shards {
		from := 0
		if !resync {
			from = c.pos[i]
		}
		sh.mu.RLock()
		n := len(sh.entries)
		if from > n {
			from = n
		}
		buf = append(buf, sh.entries[from:n]...)
		next.pos[i] = n
		sh.mu.RUnlock()
	}
	if l.epoch.Load() != ep {
		// A structural change raced the read; restart from scratch.
		return l.Delta(Cursor{})
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i].seq < buf[j].seq })
	return unstamp(buf), next, resync
}

// SnapshotByTime returns a copy of the entries in chronological
// order, same-instant entries in append order — byte-identical to
// SortByTime(Snapshot()) but sorted per shard (concurrently when
// GOMAXPROCS allows) and k-way merged. Federation consolidation reads
// its sources through this.
func (l *Log) SnapshotByTime() []Entry {
	runs := make([][]stamped, len(l.shards))
	total := 0
	for i, sh := range l.shards {
		sh.mu.RLock()
		if len(sh.entries) > 0 {
			runs[i] = append([]stamped(nil), sh.entries...)
		}
		sh.mu.RUnlock()
		total += len(runs[i])
	}
	less := func(a, b stamped) bool {
		if !a.e.Time.Equal(b.e.Time) {
			return a.e.Time.Before(b.e.Time)
		}
		return a.seq < b.seq
	}
	sortRun := func(r []stamped) {
		sort.Slice(r, func(i, j int) bool { return less(r[i], r[j]) })
	}
	if runtime.GOMAXPROCS(0) > 1 && total > 4096 {
		var wg sync.WaitGroup
		for i := range runs {
			if len(runs[i]) == 0 {
				continue
			}
			wg.Add(1)
			go func(r []stamped) {
				defer wg.Done()
				sortRun(r)
			}(runs[i])
		}
		wg.Wait()
	} else {
		for i := range runs {
			sortRun(runs[i])
		}
	}
	// K-way merge by (time, seq); the shard count is small, so a
	// linear head scan beats heap bookkeeping.
	out := make([]Entry, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i := range runs {
			if heads[i] >= len(runs[i]) {
				continue
			}
			if best == -1 || less(runs[i][heads[i]], runs[best][heads[best]]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, runs[best][heads[best]].e)
		heads[best]++
	}
	return out
}
