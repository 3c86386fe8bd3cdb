package minidb

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColumnType
}

// Table is an in-memory heap of typed rows guarded by a RWMutex.
// With a store attached (STORAGE file), every mutation is mirrored
// write-ahead into the durable backend; reads are always served from
// memory.
type Table struct {
	mu      sync.RWMutex
	name    string
	cols    []Column
	idx     map[string]int // lower(name) -> column index
	rows    [][]Value
	ids     []uint64 // rowids parallel to rows (durable identity)
	nextID  uint64
	store   rowStore              // nil for plain in-memory tables
	indexes map[string]*hashIndex // lower(column name) -> index
}

func newTable(name string, cols []Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("minidb: table %q needs at least one column", name)
	}
	t := &Table{name: name, cols: cols, nextID: 1, idx: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if key == "" {
			return nil, fmt.Errorf("minidb: table %q has an unnamed column", name)
		}
		if _, dup := t.idx[key]; dup {
			return nil, fmt.Errorf("minidb: table %q has duplicate column %q", name, c.Name)
		}
		t.idx[key] = i
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns a copy of the column definitions.
func (t *Table) Columns() []Column {
	out := make([]Column, len(t.cols))
	copy(out, t.cols)
	return out
}

// colIndex resolves a (case-insensitive, possibly qualified) column
// name against the table's schema.
func (t *Table) colIndex(name string) (int, error) {
	key := strings.ToLower(name)
	if i, ok := t.idx[key]; ok {
		if i == ambiguous {
			return 0, fmt.Errorf("minidb: column %q is ambiguous; qualify it", name)
		}
		return i, nil
	}
	// Qualified reference against a plain (non-join) table: accept
	// "table.col" when the qualifier matches the table name.
	if dot := strings.LastIndexByte(key, '.'); dot >= 0 {
		qualifier, bare := key[:dot], key[dot+1:]
		if qualifier == strings.ToLower(t.name) {
			if i, ok := t.idx[bare]; ok && i != ambiguous {
				return i, nil
			}
		}
		return 0, fmt.Errorf("minidb: unknown column %q", name)
	}
	return 0, fmt.Errorf("minidb: table %q has no column %q", t.name, name)
}

// Len returns the current row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// insert appends a row after coercing each value to its column type.
func (t *Table) insert(row []Value) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("minidb: table %q expects %d values, got %d", t.name, len(t.cols), len(row))
	}
	stored := make([]Value, len(row))
	for i, v := range row {
		cv, err := coerce(v, t.cols[i].Type)
		if err != nil {
			return fmt.Errorf("minidb: column %q: %w", t.cols[i].Name, err)
		}
		stored[i] = cv
	}
	t.mu.Lock()
	id := t.nextID
	if t.store != nil {
		// Write-ahead: the durable mirror sees the row before memory
		// admits it, so a storage error rejects the statement whole.
		if err := t.store.insert(id, stored); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.nextID = id + 1
	t.rows = append(t.rows, stored)
	t.ids = append(t.ids, id)
	for _, ix := range t.indexes {
		ix.add(len(t.rows)-1, stored)
	}
	t.mu.Unlock()
	return nil
}

// snapshot returns a shallow copy of the row slice; rows themselves
// are never mutated in place (update replaces them), so sharing is
// safe for readers.
func (t *Table) snapshot() [][]Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([][]Value, len(t.rows))
	copy(out, t.rows)
	return out
}

// Database is a named collection of tables.
type Database struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	storage *StorageOptions // set by AttachStorage; nil = memory only
	// schemaGen counts schema mutations (CreateTable/DropTable). The
	// enforcement plan cache keys compiled statements on it so a
	// dropped or recreated table invalidates cached plans with one
	// lock-free load; row mutations do not bump it (plans reference
	// tables by name, not by row state).
	schemaGen atomic.Uint64
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable creates a table programmatically.
func (db *Database) CreateTable(name string, cols []Column) (*Table, error) {
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("minidb: table %q already exists", name)
	}
	db.tables[key] = t
	db.schemaGen.Add(1)
	return t, nil
}

// DropTable removes a table. A file-backed table's on-disk artifacts
// are deleted with it.
func (db *Database) DropTable(name string) error {
	key := strings.ToLower(name)
	db.mu.Lock()
	t, exists := db.tables[key]
	if !exists {
		db.mu.Unlock()
		return fmt.Errorf("minidb: table %q does not exist", name)
	}
	delete(db.tables, key)
	db.schemaGen.Add(1)
	db.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.store != nil {
		err := t.store.close()
		if fs, ok := t.store.(*fileStore); ok && fs.dir != "" {
			if rerr := os.RemoveAll(fs.dir); err == nil {
				err = rerr
			}
		}
		t.store = nil
		return err
	}
	return nil
}

// SchemaGeneration returns the schema mutation counter; lock-free.
func (db *Database) SchemaGeneration() uint64 {
	return db.schemaGen.Load()
}

// Table returns the named table, or an error if it does not exist.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("minidb: table %q does not exist", name)
}

// TableNames lists table names, sorted.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

// Insert appends a row of Go values to the named table.
func (db *Database) Insert(table string, row ...Value) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	return t.insert(row)
}

// Result is the outcome of a statement: column names and rows for
// SELECT, and the number of rows affected for write statements.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// RowStrings renders a result row for display or CSV-ish output.
func (r *Result) RowStrings(i int) []string {
	out := make([]string, len(r.Rows[i]))
	for j, v := range r.Rows[i] {
		out[j] = v.String()
	}
	return out
}
