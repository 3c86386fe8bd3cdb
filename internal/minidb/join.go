package minidb

import (
	"fmt"
	"strings"
)

// ambiguous marks a bare column name that occurs in more than one
// joined table; such names must be qualified.
const ambiguous = -1

// fromResult is the materialized FROM clause: a synthetic schema
// (resolving bare and qualified column names) plus the joined rows.
type fromResult struct {
	table *Table
	rows  [][]Value
}

// resolveFrom materializes the FROM clause of a SELECT: the base
// table and any JOIN steps, with nested-loop evaluation of the ON
// predicates. Each step extends the visible schema, so an ON
// predicate can reference all tables joined so far.
func (db *Database) resolveFrom(s *SelectStmt) (*fromResult, error) {
	base, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	alias := s.TableAlias
	if alias == "" {
		alias = base.name
	}
	schema := &Table{name: "join", idx: make(map[string]int)}
	addCols(schema, base.Columns(), alias)

	// Index fast path: a top-level equality conjunct on an indexed
	// column narrows the base row source before filtering. Joined
	// queries are excluded: a qualified predicate like s.dept = 'x'
	// would otherwise be mistaken for a base-table column of the same
	// name and filter the wrong relation.
	var rows [][]Value
	indexed := false
	if len(s.Joins) == 0 {
		rows, indexed = base.lookup(s.Where)
	}
	if !indexed {
		rows = base.snapshot()
	}

	for _, jc := range s.Joins {
		right, err := db.Table(jc.Table)
		if err != nil {
			return nil, err
		}
		ralias := jc.Alias
		if ralias == "" {
			ralias = right.name
		}
		offset := len(schema.cols)
		addCols(schema, right.Columns(), ralias)
		rightRows := right.snapshot()

		var joined [][]Value
		for _, lrow := range rows {
			matched := false
			for _, rrow := range rightRows {
				combined := make([]Value, 0, len(schema.cols))
				combined = append(combined, lrow...)
				combined = append(combined, rrow...)
				v, err := eval(jc.On, &rowEnv{table: schema, row: combined})
				if err != nil {
					return nil, fmt.Errorf("minidb: join ON: %w", err)
				}
				if b, ok := boolOf(v); ok && b {
					joined = append(joined, combined)
					matched = true
				}
			}
			if !matched && jc.Kind == JoinLeft {
				combined := make([]Value, len(schema.cols))
				copy(combined, lrow)
				for i := offset; i < len(schema.cols); i++ {
					combined[i] = Null()
				}
				joined = append(joined, combined)
			}
		}
		rows = joined
	}
	return &fromResult{table: schema, rows: rows}, nil
}

// addCols appends a table's columns to the synthetic schema under the
// given alias, registering "alias.col" always and the bare name when
// it stays unambiguous.
func addCols(schema *Table, cols []Column, alias string) {
	la := strings.ToLower(alias)
	for _, c := range cols {
		i := len(schema.cols)
		schema.cols = append(schema.cols, c)
		schema.idx[la+"."+strings.ToLower(c.Name)] = i
		bare := strings.ToLower(c.Name)
		if _, exists := schema.idx[bare]; exists {
			schema.idx[bare] = ambiguous
		} else {
			schema.idx[bare] = i
		}
	}
}

// explain renders the execution plan of a SELECT as one "plan" column
// with a row per step, without running the query.
func (db *Database) explain(s *SelectStmt) (*Result, error) {
	base, err := db.Table(s.Table)
	if err != nil {
		return nil, err
	}
	var lines []string
	source := fmt.Sprintf("scan %s (%d rows)", base.Name(), base.Len())
	if len(s.Joins) == 0 {
		base.mu.RLock()
		ix, _, indexed := base.indexFor(s.Where)
		base.mu.RUnlock()
		if indexed {
			source = fmt.Sprintf("index lookup %s(%s)", base.Name(), strings.ToLower(base.cols[ix.col].Name))
		}
	}
	lines = append(lines, source)
	for _, jc := range s.Joins {
		right, err := db.Table(jc.Table)
		if err != nil {
			return nil, err
		}
		kind := "inner"
		if jc.Kind == JoinLeft {
			kind = "left"
		}
		lines = append(lines, fmt.Sprintf("nested-loop %s join %s (%d rows) on %s",
			kind, right.Name(), right.Len(), jc.On))
	}
	if s.Where != nil {
		lines = append(lines, fmt.Sprintf("filter %s", s.Where))
	}
	if len(s.GroupBy) > 0 || s.Having != nil {
		g := make([]string, len(s.GroupBy))
		for i, e := range s.GroupBy {
			g[i] = e.String()
		}
		lines = append(lines, fmt.Sprintf("group by [%s]", strings.Join(g, ", ")))
		if s.Having != nil {
			lines = append(lines, fmt.Sprintf("having %s", s.Having))
		}
	}
	if s.Distinct {
		lines = append(lines, "distinct")
	}
	if len(s.OrderBy) > 0 {
		lines = append(lines, fmt.Sprintf("sort (%d keys)", len(s.OrderBy)))
	}
	if s.Limit >= 0 {
		lines = append(lines, fmt.Sprintf("limit %d offset %d", s.Limit, s.Offset))
	}
	res := &Result{Columns: []string{"plan"}}
	for _, l := range lines {
		res.Rows = append(res.Rows, []Value{Text(l)})
	}
	return res, nil
}
