package minidb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// hashIndex is an equality index over one column, maintained by every
// mutation under the table's write lock, so a lookup only reads it
// (under the read lock). Each bucket lists row positions in ascending
// order, the order a scan visits them, so an indexed read returns the
// rows a scan would, in the same order.
type hashIndex struct {
	col int
	m   map[ixKey][]int
}

// ixKey is a value's bucket: values that compare equal share one.
// Unequal values may share one too (timestamps outside UnixNano's
// range): the full WHERE clause still runs over every row a lookup
// returns, so a shared bucket costs a filter, never a wrong answer.
type ixKey struct {
	kind Kind
	n    int64
	s    string
}

// keyOf returns v's bucket. Numbers key by float value, as compare
// orders them: INT 1 and FLOAT 1.0 are equal, -0 equals 0, and NaN
// equals NaN.
func keyOf(v Value) ixKey {
	switch v.kind {
	case KindInt, KindFloat:
		f := v.AsFloat()
		switch {
		case f == 0:
			f = 0
		case math.IsNaN(f):
			f = math.NaN()
		}
		return ixKey{kind: KindFloat, n: int64(math.Float64bits(f))}
	case KindTime:
		return ixKey{kind: KindTime, n: v.t.UnixNano()}
	default:
		return ixKey{kind: v.kind, n: v.n, s: v.s}
	}
}

// probeKey returns the bucket holding every value of a column of type
// ct that `col = v` accepts, or ok=false when no single bucket does: a
// NULL literal, and text against timestamps, which compare by parsing
// the text.
func probeKey(v Value, ct ColumnType) (ixKey, bool) {
	switch {
	case v.kind == KindNull:
		return ixKey{}, false
	case v.kind == KindText && ct == TypeTime:
		tm, err := parseTimeLiteral(v.s)
		if err != nil {
			return ixKey{}, false
		}
		return keyOf(Time(tm)), true
	case v.kind == KindTime && ct == TypeText:
		return ixKey{}, false
	}
	return keyOf(v), true
}

func newHashIndex(col int, rows [][]Value) *hashIndex {
	ix := &hashIndex{col: col, m: make(map[ixKey][]int, len(rows))}
	for i, row := range rows {
		ix.add(i, row)
	}
	return ix
}

// add files the row at pos, which is past every filed position.
func (ix *hashIndex) add(pos int, row []Value) {
	k := keyOf(row[ix.col])
	ix.m[k] = append(ix.m[k], pos)
}

// move refiles the row at pos after an update, when its indexed value
// changed bucket.
func (ix *hashIndex) move(pos int, old, next []Value) {
	from, to := keyOf(old[ix.col]), keyOf(next[ix.col])
	if from == to {
		return
	}
	b := ix.m[from]
	i := sort.SearchInts(b, pos)
	if b = append(b[:i], b[i+1:]...); len(b) == 0 {
		delete(ix.m, from)
	} else {
		ix.m[from] = b
	}
	b = ix.m[to]
	i = sort.SearchInts(b, pos)
	b = append(b, 0)
	copy(b[i+1:], b[i:])
	b[i] = pos
	ix.m[to] = b
}

// renumber applies a delete: newPos maps each old position to its new
// one, or to -1 for a deleted row. Deletes keep row order, so each
// bucket stays sorted.
func (ix *hashIndex) renumber(newPos []int) {
	for k, b := range ix.m {
		kept := b[:0]
		for _, p := range b {
			if q := newPos[p]; q >= 0 {
				kept = append(kept, q)
			}
		}
		if len(kept) == 0 {
			delete(ix.m, k)
		} else {
			ix.m[k] = kept
		}
	}
}

// CreateIndexStmt is CREATE INDEX name ON table (col).
type CreateIndexStmt struct {
	Name  string
	Table string
	Col   string
}

func (*CreateIndexStmt) stmt() {}

// CreateIndex registers an equality index on a column. Indexes speed
// up top-level `col = literal` predicates; they are transparent
// otherwise. A file-backed table persists the declaration before the
// index exists in memory, and rebuilds the index when reopened.
func (db *Database) CreateIndex(table, col string) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	idx, err := t.colIndex(col)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := strings.ToLower(t.cols[idx].Name)
	if _, dup := t.indexes[key]; dup {
		return fmt.Errorf("minidb: index on %s(%s) already exists", table, col)
	}
	if t.store != nil {
		if err := t.store.declareIndex(key); err != nil {
			return err
		}
	}
	t.addIndex(key, idx)
	return nil
}

// addIndex builds the index on column idx. The caller holds t.mu for
// writing, or owns t before publishing it.
func (t *Table) addIndex(key string, idx int) {
	if t.indexes == nil {
		t.indexes = make(map[string]*hashIndex)
	}
	t.indexes[key] = newHashIndex(idx, t.rows)
}

// Indexes lists the indexed column names of a table, sorted.
func (t *Table) Indexes() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// lookup returns the rows an index reads for where (see indexFor);
// ok=false means no index can answer it.
func (t *Table) lookup(where Expr) ([][]Value, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, k, ok := t.indexFor(where)
	if !ok {
		return nil, false
	}
	positions := ix.m[k]
	rows := make([][]Value, len(positions))
	for i, p := range positions {
		rows[i] = t.rows[p]
	}
	return rows, true
}

// probe returns the index on col and the bucket `col = v` reads, or
// ok=false when col has no index or the literal needs a scan (see
// probeKey). The caller holds t.mu.
func (t *Table) probe(col string, v Value) (*hashIndex, ixKey, bool) {
	key := strings.ToLower(col)
	// Strip a qualifier ("alias.col") — single-table fast path only.
	if dot := strings.LastIndexByte(key, '.'); dot >= 0 {
		key = key[dot+1:]
	}
	ix, ok := t.indexes[key]
	if !ok {
		return nil, ixKey{}, false
	}
	k, ok := probeKey(v, t.cols[ix.col].Type)
	return ix, k, ok
}

// indexFor returns the index and bucket of where's first top-level
// (AND-connected) `col = literal` conjunct that probe can answer, or
// ok=false when none can. The full predicate is still evaluated over
// the rows, so using the index is purely a row-source optimization.
// Execution and EXPLAIN both choose through it. The caller holds t.mu.
func (t *Table) indexFor(where Expr) (*hashIndex, ixKey, bool) {
	if x, ok := where.(*Binary); ok {
		switch x.Op {
		case "AND":
			if ix, k, ok := t.indexFor(x.L); ok {
				return ix, k, true
			}
			return t.indexFor(x.R)
		case "=":
			ref, rok := x.L.(*ColRef)
			lit, lok := x.R.(*Literal)
			if !rok || !lok {
				ref, rok = x.R.(*ColRef)
				lit, lok = x.L.(*Literal)
			}
			if rok && lok {
				return t.probe(ref.Name, lit.Val)
			}
		}
	}
	return nil, ixKey{}, false
}
