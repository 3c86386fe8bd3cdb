package audit

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
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
// active days are the §4.2 evidence features (core.GroupSuspicionReviewer).
//
// Groups are keyed by the raw (data, purpose, authorized) triple,
// matching the SQL extractor's GROUP BY semantics exactly (the SQL
// engine groups by stored column bytes, not normalized values); each
// group caches the canonical rule key once for coverage membership
// tests. Per-group distinct users count raw user values, mirroring
// SQL COUNT(DISTINCT user); the log-wide Stats normalize users,
// mirroring Summarize. Within a shard, values are the dictionary ids
// of its records (one id per raw value), and instants are a record's
// nanoseconds, sequence number and zone id; readers resolve them under
// the read lock.

// groupKey is the raw GROUP BY identity of the default analysis
// attribute set (data, purpose, authorized), as dictionary ids.
type groupKey struct {
	data       uint32
	purpose    uint32
	authorized uint32
}

// groupName is a groupKey resolved to its raw values.
type groupName struct {
	data       string
	purpose    string
	authorized string
}

// instant is a record's time: nanoseconds and zone id, plus the
// record's sequence number to order equal times.
type instant struct {
	ns   int64
	seq  uint64
	zone uint32
}

// before reports whether a is a better window start than b: an earlier
// time, or the same time at a lower sequence number. after is the same
// for the window end. Of equal instants, whatever their zones, both
// bounds keep the row appended first, as Summarize over a Snapshot
// does, independent of shard and fold order.
func (a instant) before(b instant) bool { return a.ns < b.ns || a.ns == b.ns && a.seq < b.seq }

func (a instant) after(b instant) bool { return a.ns > b.ns || a.ns == b.ns && a.seq < b.seq }

// widen extends the window [first, last] to cover at. Appends mostly
// arrive in time order, so a later time than the window's end returns
// after one comparison.
func widen(first, last *instant, at instant) {
	if at.ns > last.ns {
		*last = at
		return
	}
	if at.before(*first) {
		*first = at
	}
	if at.after(*last) {
		*last = at
	}
}

// groupAcc is one shard's accumulator for a group.
type groupAcc struct {
	canon       string         // canonical rule key, computed once
	firstSeq    uint64         // lowest sequence number over all rows
	total       int            // all rows in the group
	practice    int            // rows surviving Filter (exception + allow)
	users       map[uint32]int // raw user id -> practice rows
	offHours    int            // practice rows with OffHours(time)
	days        []int32        // distinct UTCDay of practice rows, ascending
	first, last instant        // practice window; set once practice > 0
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

// unionDays merges the ascending set b into the ascending set a, in
// a's storage when it has room. The shards of a group mostly share
// their days, so b is usually a subset of a already: then one
// read-only pass returns a unchanged. a never aliases b.
func unionDays(a, b []int32) []int32 {
	extra := 0 // days of b missing from a
	for i, j := 0, 0; j < len(b); j++ {
		for i < len(a) && a[i] < b[j] {
			i++
		}
		if i == len(a) || a[i] != b[j] {
			extra++
		}
	}
	if extra == 0 {
		return a
	}
	n := len(a)
	a = slices.Grow(a, extra)[:n+extra]
	// Merge from the back, so no element of a is overwritten before it
	// is read; a day in both is written once.
	i, k := n-1, n+extra-1
	for j := len(b) - 1; j >= 0; k-- {
		switch {
		case i >= 0 && a[i] > b[j]:
			a[k] = a[i]
			i--
		case i >= 0 && a[i] == b[j]:
			a[k] = a[i]
			i--
			j--
		default:
			a[k] = b[j]
			j--
		}
	}
	return a
}

// statsAcc is one shard's Stats accumulator.
type statsAcc struct {
	total       int
	allowed     int
	denied      int
	exceptions  int
	regular     int
	users       []uint64 // raw user ids, one bit per dictionary id; normalized at read by Summary
	first, last instant  // set once total > 0
}

// addUser records user id u. A bit set indexed by dictionary id keeps
// the per-append cost to one word in a small, cache-resident slice.
func (st *statsAcc) addUser(u uint32) {
	w := int(u / 64)
	for len(st.users) <= w {
		st.users = append(st.users, 0)
	}
	st.users[w] |= 1 << (u % 64)
}

// indexLocked folds one record into the shard's accumulators and
// moves its gen; the shard lock must be held. Users are recorded raw
// and normalized on the O(users) read side instead of the O(entries)
// write side — normalize(union raw) equals union(normalize) so Summary
// is unchanged. Windows keep the lowest-seq of equal instants, as
// Summarize does.
func (s *shard) indexLocked(r *record) {
	s.gen++
	at := instant{ns: r.ns, seq: r.seq, zone: r.zone}
	allow, exception := Op(r.op) == Allow, Status(r.status) == Exception
	st := &s.stats
	if st.total == 0 {
		st.first, st.last = at, at
	} else {
		widen(&st.first, &st.last, at)
	}
	st.total++
	if allow {
		st.allowed++
	} else {
		st.denied++
	}
	if exception {
		st.exceptions++
	} else {
		st.regular++
	}
	st.addUser(r.user)

	if s.groups == nil {
		s.groups = make(map[groupKey]*groupAcc)
	}
	k := groupKey{data: r.data, purpose: r.purpose, authorized: r.authorized}
	g := s.groups[k]
	if g == nil {
		g = &groupAcc{canon: policy.TripleKey(s.strs[r.data], s.strs[r.purpose], s.strs[r.authorized]), firstSeq: r.seq}
		s.groups[k] = g
	} else if r.seq < g.firstSeq {
		g.firstSeq = r.seq
	}
	g.total++
	if exception && allow {
		if g.practice == 0 {
			g.first, g.last = at, at
		} else {
			widen(&g.first, &g.last, at)
		}
		g.practice++
		if g.users == nil {
			g.users = make(map[uint32]int)
		}
		g.users[r.user]++
		t := s.time(r.ns, r.zone)
		if OffHours(t) {
			g.offHours++
		}
		g.days = addDay(g.days, UTCDay(t))
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

// groupView is one published Groups result and the index state it
// was merged from: the log's epoch and, per shard, the gen read with
// that shard's groups. Readers of a matching state share it.
//
// prima:arena — a view is filled by one merge and frozen once it is
// published through Log.view; its groups' Users maps and Days slices
// are shared by every caller it is returned to.
type groupView struct {
	epoch  uint64
	gens   []uint64
	groups []Group
}

// Groups returns the merged view of the per-shard accumulators, sorted
// by the raw group identity. Cost is O(groups), not O(entries): this
// is the read side of the incremental index. The view is published
// RCU-style and rebuilt only when the index has changed since: a call
// whose epoch and shard gens match the published view's gets that view
// back with no merge, so the returned slice, its Users maps and its
// Days slices are shared with other callers and must be treated as
// read-only. A view is published only when no structural op moved the
// epoch during its merge. MergeGroups returns a fresh merge instead.
func (l *Log) Groups() []Group {
	ep := l.epoch.Load()
	old := l.view.Load()
	if old != nil && old.epoch == ep && l.unchanged(old.gens) {
		return old.groups
	}
	v := &groupView{epoch: ep, gens: make([]uint64, len(l.shards))}
	v.groups = mergeGroups([]*Log{l}, v.gens)
	// Structural ops move the epoch before they touch a shard, so an
	// unmoved epoch means no retention pass rebuilt shards mid-merge.
	// The swap keeps a view another caller published meanwhile; the
	// next call checks whichever is published against the gens.
	if l.epoch.Load() == ep {
		l.view.CompareAndSwap(old, v)
	}
	return v.groups
}

// unchanged reports whether every shard's gen still equals the one in
// gens: then no shard's groups changed since gens was read.
func (l *Log) unchanged(gens []uint64) bool {
	for i, sh := range l.shards {
		sh.mu.RLock()
		g := sh.gen
		sh.mu.RUnlock()
		if g != gens[i] {
			return false
		}
	}
	return true
}

// MergeGroups merges the incremental per-rule indexes of several logs
// into one deterministic cross-log view, sorted by the raw group
// identity — the federated analytics feed: a consolidator holding one
// log per site reads combined groups (summed counts and user counts,
// unioned active days, widened practice windows) in O(groups) without
// materializing a merged entry stream. Each call merges afresh and the
// caller owns the result. MergeGroups(l) equals l.Groups(). FirstSeq
// is the minimum over the logs, so it orders rules only within one
// log; so do the sequence numbers that pick the zone of equal-instant
// window bounds.
func MergeGroups(logs ...*Log) []Group { return mergeGroups(logs, nil) }

// name resolves a group key to its raw values; the shard lock must be
// held.
func (s *shard) name(k groupKey) groupName {
	return groupName{s.strs[k.data], s.strs[k.purpose], s.strs[k.authorized]}
}

// mergeGroups is the one merge behind Groups and MergeGroups. When
// gens is non-nil (one log), it receives each shard's gen, read under
// the read lock together with the groups merged from that shard.
//
// One pass visits each shard once. A group's Users map is made on the
// first shard with practice users, sized for that shard's users times
// the shard count, plus a quarter: the shard route hashes (user, data,
// purpose), so a group's users spread over the shards and one shard's
// share estimates the total, and the quarter spares a map a grow when
// that shard drew less than its share.
func mergeGroups(logs []*Log, gens []uint64) []Group {
	type merged struct {
		Group
		first, last instant // the window bounds First and Last resolve
	}
	shards := 0
	for _, l := range logs {
		shards += len(l.shards)
	}
	acc := make(map[groupName]*merged)
	for _, l := range logs {
		for i, sh := range l.shards {
			sh.mu.RLock()
			if gens != nil {
				gens[i] = sh.gen
			}
			for k, g := range sh.groups {
				name := sh.name(k)
				m := acc[name]
				if m == nil {
					m = &merged{}
					m.Data, m.Purpose, m.Authorized = name.data, name.purpose, name.authorized
					m.Key, m.FirstSeq = g.canon, g.firstSeq
					acc[name] = m
				}
				if g.firstSeq < m.FirstSeq {
					m.FirstSeq = g.firstSeq
				}
				m.Total += g.total
				m.Practice += g.practice
				m.OffHours += g.offHours
				if len(g.users) > 0 {
					if m.Users == nil {
						m.Users = make(map[string]int, len(g.users)*shards*5/4)
					}
					for u, n := range g.users {
						m.Users[sh.strs[u]] += n
					}
				}
				if len(g.days) > 0 {
					m.Days = unionDays(m.Days, g.days)
				}
				if g.practice > 0 {
					// m.Practice == g.practice: the first practice rows seen.
					if m.Practice == g.practice || g.first.before(m.first) {
						m.first, m.First = g.first, sh.time(g.first.ns, g.first.zone)
					}
					if m.Practice == g.practice || g.last.after(m.last) {
						m.last, m.Last = g.last, sh.time(g.last.ns, g.last.zone)
					}
				}
			}
			sh.mu.RUnlock()
		}
	}
	out := make([]Group, 0, len(acc))
	for _, m := range acc {
		m.PracticeUsers = len(m.Users)
		out = append(out, m.Group)
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
				users = append(users, sh.strs[u])
			}
			sort.Strings(users)
			gs = append(gs, PracticeGroup{
				Data:       sh.strs[k.data],
				Purpose:    sh.strs[k.purpose],
				Authorized: sh.strs[k.authorized],
				Weight:     g.practice,
				Users:      users,
				First:      sh.time(g.first.ns, g.first.zone),
				Last:       sh.time(g.last.ns, g.last.zone),
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
	var first, last instant // the window bounds s.First and s.Last resolve
	users := make(map[string]struct{})
	for _, sh := range l.shards {
		sh.mu.RLock()
		st := &sh.stats
		s.Total += st.total
		s.Allowed += st.allowed
		s.Denied += st.denied
		s.Exceptions += st.exceptions
		s.Regular += st.regular
		for w, word := range st.users {
			for ; word != 0; word &= word - 1 {
				users[vocab.Norm(sh.strs[w*64+bits.TrailingZeros64(word)])] = struct{}{}
			}
		}
		if st.total > 0 {
			// s.Total == st.total: the first rows seen.
			if s.Total == st.total || st.first.before(first) {
				first, s.First = st.first, sh.time(st.first.ns, st.first.zone)
			}
			if s.Total == st.total || st.last.after(last) {
				last, s.Last = st.last, sh.time(st.last.ns, st.last.zone)
			}
		}
		sh.mu.RUnlock()
	}
	s.Users = len(users)
	return s
}

// Cursor marks a read position in the log for O(delta) consumption:
// the sequence number the last read was fenced at (see Log.fence),
// tied to the index epoch. The zero Cursor reads from the start. A
// cursor taken before a structural change (Reset/Expire/Rotate) is
// detected via the epoch and triggers a resync from the start.
type Cursor struct {
	epoch uint64
	seq   uint64
	valid bool
}

// Delta returns the entries appended since the cursor, in append
// order, plus the advanced cursor. resync reports that the cursor
// was stale (zero or wrong epoch) and the returned entries restart
// from the beginning of the log — consumers keeping derived state
// must discard it when resync is true. A durable log serves the part
// of the delta at or below its checkpoint cut from the index; when
// that read fails, the error goes to the store's OnErr and Delta
// returns no entries and the cursor it was given, so the next call
// reads the same range again.
func (l *Log) Delta(c Cursor) (delta []Entry, next Cursor, resync bool) {
	ep := l.epoch.Load()
	resync = !c.valid || c.epoch != ep
	from := c.seq
	if resync {
		from = 0
	}
	cut, _, release := l.holdCold()
	runs, err := l.coldRun(from, cut, 0)
	if err != nil {
		release()
		l.cold.report(err)
		return nil, c, false
	}
	hi := l.fence()
	runs = append(runs, l.seqRuns(from, hi, 0)...)
	release()
	if l.epoch.Load() != ep {
		// A structural change raced the read; restart from scratch.
		return l.Delta(Cursor{})
	}
	return mergeEntries(runs, bySeq), Cursor{epoch: ep, seq: hi, valid: true}, resync
}
