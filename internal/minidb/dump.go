package minidb

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// Dump writes the whole database as a SQL script (schema, rows,
// indexes) that Load replays. Tables are emitted in name order and
// rows in heap order, so dumps of equal databases are byte-identical.
func (db *Database) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "-- minidb dump: %d table(s)\n", len(db.TableNames())); err != nil {
		return err
	}
	for _, name := range db.TableNames() {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		cols := t.Columns()
		defs := make([]string, len(cols))
		for i, c := range cols {
			defs[i] = c.Name + " " + c.Type.String()
		}
		if _, err := fmt.Fprintf(bw, "CREATE TABLE %s (%s);\n", t.Name(), strings.Join(defs, ", ")); err != nil {
			return err
		}
		rows := t.snapshot()
		const batch = 64
		for start := 0; start < len(rows); start += batch {
			end := start + batch
			if end > len(rows) {
				end = len(rows)
			}
			tuples := make([]string, 0, end-start)
			for _, row := range rows[start:end] {
				lits := make([]string, len(row))
				for i, v := range row {
					lits[i] = sqlLiteral(v)
				}
				tuples = append(tuples, "("+strings.Join(lits, ", ")+")")
			}
			if _, err := fmt.Fprintf(bw, "INSERT INTO %s VALUES %s;\n", t.Name(), strings.Join(tuples, ", ")); err != nil {
				return err
			}
		}
		for i, col := range t.Indexes() {
			if _, err := fmt.Fprintf(bw, "CREATE INDEX %s_ix%d ON %s (%s);\n", t.Name(), i, t.Name(), col); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// sqlLiteral renders a value as a SQL literal accepted by the parser.
func sqlLiteral(v Value) string {
	switch v.Kind() {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case KindInt, KindFloat:
		return v.String()
	case KindTime:
		return "'" + v.AsTime().UTC().Format(time.RFC3339Nano) + "'"
	default:
		return "'" + strings.ReplaceAll(v.AsText(), "'", "''") + "'"
	}
}

// LoadScript executes every statement of a SQL script against the
// database. Statements are split on top-level semicolons using the
// real lexer, so string literals containing ';' survive.
func (db *Database) LoadScript(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("minidb: read script: %w", err)
	}
	stmts, err := SplitStatements(string(raw))
	if err != nil {
		return err
	}
	for i, stmt := range stmts {
		if _, err := db.Exec(stmt); err != nil {
			return fmt.Errorf("minidb: script statement %d: %w", i+1, err)
		}
	}
	return nil
}

// SplitStatements tokenizes src and splits it into individual
// statements at top-level semicolons. Comments and blank segments are
// skipped.
func SplitStatements(src string) ([]string, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	var out []string
	start := 0 // byte offset of the current statement
	tokSeen := false
	for _, t := range toks {
		switch {
		case t.kind == tokEOF:
			if tokSeen {
				if s := strings.TrimSpace(src[start:]); s != "" {
					out = append(out, s)
				}
			}
		case t.kind == tokPunct && t.text == ";":
			if tokSeen {
				out = append(out, strings.TrimSpace(src[start:t.pos]))
			}
			start = t.pos + 1
			tokSeen = false
		default:
			tokSeen = true
		}
	}
	return out, nil
}
