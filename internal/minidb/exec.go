package minidb

import (
	"fmt"
	"sort"
	"strings"
)

// Exec parses and executes a single SQL statement.
func (db *Database) Exec(sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// ExecStmt executes a parsed statement. HDB Active Enforcement uses
// this entry point to run rewritten ASTs without re-rendering them.
func (db *Database) ExecStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *SelectStmt:
		return db.execSelect(s)
	case *InsertStmt:
		return db.execInsert(s)
	case *CreateTableStmt:
		return db.execCreate(s)
	case *DropTableStmt:
		return db.execDrop(s)
	case *DeleteStmt:
		return db.execDelete(s)
	case *UpdateStmt:
		return db.execUpdate(s)
	case *CreateIndexStmt:
		if err := db.CreateIndex(s.Table, s.Col); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *ExplainStmt:
		return db.explain(s.Select)
	default:
		return nil, fmt.Errorf("minidb: unsupported statement %T", st)
	}
}

// MustExec is Exec that panics on error; for tests and fixtures.
func (db *Database) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

func (db *Database) execCreate(s *CreateTableStmt) (*Result, error) {
	_, err := db.CreateTableStorage(s.Table, s.Cols, s.Storage)
	if err != nil {
		if s.IfNotExists && strings.Contains(err.Error(), "already exists") {
			return &Result{}, nil
		}
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execDrop(s *DropTableStmt) (*Result, error) {
	if err := db.DropTable(s.Table); err != nil {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execInsert(s *InsertStmt) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	cols := t.Columns()
	// Column mapping: explicit list or positional.
	target := make([]int, 0, len(cols))
	if len(s.Cols) > 0 {
		for _, name := range s.Cols {
			i, err := t.colIndex(name)
			if err != nil {
				return nil, err
			}
			target = append(target, i)
		}
	} else {
		for i := range cols {
			target = append(target, i)
		}
	}
	n := 0
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(target) {
			return nil, fmt.Errorf("minidb: INSERT expects %d values, got %d", len(target), len(exprRow))
		}
		row := make([]Value, len(cols))
		for i := range row {
			row[i] = Null()
		}
		for i, e := range exprRow {
			if hasAggregate(e) {
				return nil, fmt.Errorf("minidb: aggregates not allowed in VALUES")
			}
			v, err := eval(e, constEnv{})
			if err != nil {
				return nil, err
			}
			row[target[i]] = v
		}
		if err := t.insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// constEnv evaluates expressions with no row context (VALUES lists).
type constEnv struct{}

func (constEnv) col(name string) (Value, error) {
	return Value{}, fmt.Errorf("minidb: column reference %q not allowed here", name)
}
func (constEnv) agg(*Call) (Value, bool, error) { return Value{}, false, nil }

func (db *Database) execDelete(s *DeleteStmt) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.rows[:0:0]
	keptIDs := t.ids[:0:0]
	var victims []uint64
	var newPos []int // old position -> new, -1 when deleted; for the indexes
	if len(t.indexes) > 0 {
		newPos = make([]int, len(t.rows))
	}
	for ri, row := range t.rows {
		match := true
		if s.Where != nil {
			v, err := eval(s.Where, &rowEnv{table: t, row: row})
			if err != nil {
				return nil, err
			}
			b, ok := boolOf(v)
			match = ok && b
		}
		if match {
			victims = append(victims, t.ids[ri])
			if newPos != nil {
				newPos[ri] = -1
			}
		} else {
			if newPos != nil {
				newPos[ri] = len(kept)
			}
			kept = append(kept, row)
			keptIDs = append(keptIDs, t.ids[ri])
		}
	}
	if t.store != nil && len(victims) > 0 {
		// Write-ahead: the durable mirror drops the rows before memory
		// does, so a storage error rejects the statement whole.
		if err := t.store.deleteRows(victims); err != nil {
			return nil, err
		}
	}
	t.rows = kept
	t.ids = keptIDs
	if len(victims) > 0 {
		for _, ix := range t.indexes {
			ix.renumber(newPos)
		}
	}
	return &Result{Affected: len(victims)}, nil
}

func (db *Database) execUpdate(s *UpdateStmt) (*Result, error) {
	t, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(s.Cols))
	for i, name := range s.Cols {
		idx, err := t.colIndex(name)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Two phases, like execDelete: evaluate every matched row first,
	// then mirror the whole batch to the durable store write-ahead,
	// and only then touch t.rows — a storage error rejects the
	// statement whole instead of leaving it half-applied in both
	// memory and the mirror.
	var (
		rowIdxs []int
		ids     []uint64
		nextRow [][]Value
	)
	for ri, row := range t.rows {
		match := true
		if s.Where != nil {
			v, err := eval(s.Where, &rowEnv{table: t, row: row})
			if err != nil {
				return nil, err
			}
			b, ok := boolOf(v)
			match = ok && b
		}
		if !match {
			continue
		}
		// Replace the row (readers may share the old backing array).
		next := make([]Value, len(row))
		copy(next, row)
		for i, e := range s.Exprs {
			if hasAggregate(e) {
				return nil, fmt.Errorf("minidb: aggregates not allowed in UPDATE SET")
			}
			v, err := eval(e, &rowEnv{table: t, row: row})
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.cols[idxs[i]].Type)
			if err != nil {
				return nil, err
			}
			next[idxs[i]] = cv
		}
		rowIdxs = append(rowIdxs, ri)
		ids = append(ids, t.ids[ri])
		nextRow = append(nextRow, next)
	}
	if t.store != nil && len(ids) > 0 {
		if err := t.store.updateRows(ids, nextRow); err != nil {
			return nil, err
		}
	}
	for i, ri := range rowIdxs {
		for _, ix := range t.indexes {
			ix.move(ri, t.rows[ri], nextRow[i])
		}
		t.rows[ri] = nextRow[i]
	}
	return &Result{Affected: len(rowIdxs)}, nil
}

func (db *Database) execSelect(s *SelectStmt) (*Result, error) {
	from, err := db.resolveFrom(s)
	if err != nil {
		return nil, err
	}
	t := from.table
	rows := from.rows

	// WHERE
	if s.Where != nil {
		if hasAggregate(s.Where) {
			return nil, fmt.Errorf("minidb: aggregates not allowed in WHERE")
		}
		filtered := rows[:0:0]
		for _, row := range rows {
			v, err := eval(s.Where, &rowEnv{table: t, row: row})
			if err != nil {
				return nil, err
			}
			if b, ok := boolOf(v); ok && b {
				filtered = append(filtered, row)
			}
		}
		rows = filtered
	}

	grouped := len(s.GroupBy) > 0 || s.Having != nil
	if !grouped {
		for _, it := range s.Items {
			if !it.Star && hasAggregate(it.Expr) {
				grouped = true
				break
			}
		}
	}

	var (
		colNames []string
		outRows  [][]Value
		sortKeys [][]Value
	)

	if grouped {
		colNames, outRows, sortKeys, err = db.selectGrouped(s, t, rows)
	} else {
		colNames, outRows, sortKeys, err = db.selectPlain(s, t, rows)
	}
	if err != nil {
		return nil, err
	}

	// DISTINCT
	if s.Distinct {
		seen := make(map[string]bool, len(outRows))
		dedupRows := outRows[:0:0]
		dedupKeys := sortKeys[:0:0]
		for i, row := range outRows {
			k := rowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
			dedupRows = append(dedupRows, row)
			if sortKeys != nil {
				dedupKeys = append(dedupKeys, sortKeys[i])
			}
		}
		outRows = dedupRows
		if sortKeys != nil {
			sortKeys = dedupKeys
		}
	}

	// ORDER BY
	if len(s.OrderBy) > 0 {
		type sortable struct {
			row  []Value
			keys []Value
		}
		items := make([]sortable, len(outRows))
		for i := range outRows {
			items[i] = sortable{row: outRows[i], keys: sortKeys[i]}
		}
		sort.SliceStable(items, func(i, j int) bool {
			for k, ob := range s.OrderBy {
				cmp, ok := compare(items[i].keys[k], items[j].keys[k])
				if !ok {
					// NULLs first; incomparables equal.
					in, jn := items[i].keys[k].IsNull(), items[j].keys[k].IsNull()
					if in != jn {
						if ob.Desc {
							return jn
						}
						return in
					}
					continue
				}
				if cmp == 0 {
					continue
				}
				if ob.Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
		for i := range items {
			outRows[i] = items[i].row
		}
	}

	// OFFSET / LIMIT
	if s.Offset > 0 {
		if s.Offset >= len(outRows) {
			outRows = nil
		} else {
			outRows = outRows[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(outRows) {
		outRows = outRows[:s.Limit]
	}

	return &Result{Columns: colNames, Rows: outRows}, nil
}

func rowKey(row []Value) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(v.key())
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// itemName derives the output column name of a select item.
func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*ColRef); ok {
		return ref.Name
	}
	return it.Expr.String()
}

// orderKeyExpr resolves an ORDER BY expression: ordinal (ORDER BY 2),
// alias of a select item, or a plain expression. It returns either an
// output-column index (>= 0) or an expression to evaluate.
func orderKeyExpr(ob OrderItem, items []SelectItem) (int, Expr, error) {
	if lit, ok := ob.Expr.(*Literal); ok && lit.Val.Kind() == KindInt {
		n := int(lit.Val.AsInt())
		if n < 1 || n > len(items) {
			return 0, nil, fmt.Errorf("minidb: ORDER BY position %d out of range", n)
		}
		return n - 1, nil, nil
	}
	if ref, ok := ob.Expr.(*ColRef); ok {
		for i, it := range items {
			if it.Alias != "" && strings.EqualFold(it.Alias, ref.Name) {
				return i, nil, nil
			}
		}
	}
	return -1, ob.Expr, nil
}

func (db *Database) selectPlain(s *SelectStmt, t *Table, rows [][]Value) ([]string, [][]Value, [][]Value, error) {
	cols := t.Columns()
	var colNames []string
	for _, it := range s.Items {
		if it.Star {
			for _, c := range cols {
				colNames = append(colNames, c.Name)
			}
		} else {
			colNames = append(colNames, itemName(it))
		}
	}
	outRows := make([][]Value, 0, len(rows))
	var sortKeys [][]Value
	needKeys := len(s.OrderBy) > 0
	if needKeys {
		sortKeys = make([][]Value, 0, len(rows))
	}
	for _, row := range rows {
		en := &rowEnv{table: t, row: row}
		out := make([]Value, 0, len(colNames))
		for _, it := range s.Items {
			if it.Star {
				out = append(out, row...)
				continue
			}
			v, err := eval(it.Expr, en)
			if err != nil {
				return nil, nil, nil, err
			}
			out = append(out, v)
		}
		if needKeys {
			keys := make([]Value, len(s.OrderBy))
			for k, ob := range s.OrderBy {
				idx, ex, err := orderKeyExpr(ob, s.Items)
				if err != nil {
					return nil, nil, nil, err
				}
				if ex == nil {
					keys[k] = out[idx]
					continue
				}
				v, err := eval(ex, en)
				if err != nil {
					return nil, nil, nil, err
				}
				keys[k] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		outRows = append(outRows, out)
	}
	return colNames, outRows, sortKeys, nil
}

func (db *Database) selectGrouped(s *SelectStmt, t *Table, rows [][]Value) ([]string, [][]Value, [][]Value, error) {
	for _, it := range s.Items {
		if it.Star {
			return nil, nil, nil, fmt.Errorf("minidb: SELECT * cannot be combined with GROUP BY or aggregates")
		}
	}
	for _, g := range s.GroupBy {
		if hasAggregate(g) {
			return nil, nil, nil, fmt.Errorf("minidb: aggregates not allowed in GROUP BY")
		}
	}
	type group struct {
		rows [][]Value
		vals map[string]Value // rendered group expr (and bare column names) -> value
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range rows {
		en := &rowEnv{table: t, row: row}
		var kb strings.Builder
		vals := make(map[string]Value, len(s.GroupBy))
		for _, g := range s.GroupBy {
			v, err := eval(g, en)
			if err != nil {
				return nil, nil, nil, err
			}
			kb.WriteString(v.key())
			kb.WriteByte('\x00')
			vals[strings.ToLower(g.String())] = v
			if ref, ok := g.(*ColRef); ok {
				vals[strings.ToLower(ref.Name)] = v
			}
		}
		key := kb.String()
		gr, ok := groups[key]
		if !ok {
			gr = &group{vals: vals}
			groups[key] = gr
			order = append(order, key)
		}
		gr.rows = append(gr.rows, row)
	}
	// A pure-aggregate query over zero rows still yields one group.
	if len(s.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{vals: map[string]Value{}}
		order = append(order, "")
	}

	colNames := make([]string, len(s.Items))
	for i, it := range s.Items {
		colNames[i] = itemName(it)
	}

	var outRows [][]Value
	var sortKeys [][]Value
	needKeys := len(s.OrderBy) > 0

	for _, key := range order {
		gr := groups[key]
		ge := &groupEnv{table: t, rows: gr.rows, groupVals: gr.vals}
		evalInGroup := func(e Expr) (Value, error) {
			if v, ok := gr.vals[strings.ToLower(e.String())]; ok {
				return v, nil
			}
			return eval(e, ge)
		}
		if s.Having != nil {
			v, err := evalInGroup(s.Having)
			if err != nil {
				return nil, nil, nil, err
			}
			if b, ok := boolOf(v); !ok || !b {
				continue
			}
		}
		out := make([]Value, len(s.Items))
		for i, it := range s.Items {
			v, err := evalInGroup(it.Expr)
			if err != nil {
				return nil, nil, nil, err
			}
			out[i] = v
		}
		if needKeys {
			keys := make([]Value, len(s.OrderBy))
			for k, ob := range s.OrderBy {
				idx, ex, err := orderKeyExpr(ob, s.Items)
				if err != nil {
					return nil, nil, nil, err
				}
				if ex == nil {
					keys[k] = out[idx]
					continue
				}
				v, err := evalInGroup(ex)
				if err != nil {
					return nil, nil, nil, err
				}
				keys[k] = v
			}
			sortKeys = append(sortKeys, keys)
		}
		outRows = append(outRows, out)
	}
	return colNames, outRows, sortKeys, nil
}
