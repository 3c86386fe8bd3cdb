package core

import (
	"fmt"
	"strings"

	"repro/internal/audit"
	"repro/internal/minidb"
	"repro/internal/policy"
	"repro/internal/vocab"
)

// auditColumns maps analysis attributes to the audit table schema
// used by the SQL extractor. "time" is always stored (for the
// first/last-seen evidence) but is not a valid grouping attribute.
var auditColumns = []minidb.Column{
	{Name: "at", Type: minidb.TypeTime},
	{Name: "op", Type: minidb.TypeInt},
	{Name: "user", Type: minidb.TypeText},
	{Name: "data", Type: minidb.TypeText},
	{Name: "purpose", Type: minidb.TypeText},
	{Name: "authorized", Type: minidb.TypeText},
	{Name: "status", Type: minidb.TypeInt},
}

// LoadEntries materializes audit entries into a minidb table with the
// paper's audit schema. Shared by the SQL extractor and the HDB/CLI
// inspection paths.
func LoadEntries(db *minidb.Database, table string, entries []audit.Entry) error {
	if _, err := db.CreateTable(table, auditColumns); err != nil {
		return err
	}
	for _, e := range entries {
		err := db.Insert(table,
			minidb.Time(e.Time),
			minidb.Int(int64(e.Op)),
			minidb.Text(e.User),
			minidb.Text(e.Data),
			minidb.Text(e.Purpose),
			minidb.Text(e.Authorized),
			minidb.Int(int64(e.Status)),
		)
		if err != nil {
			return err
		}
	}
	return nil
}

// SQLExtractor is the paper's dataAnalysis routine (Algorithm 5): it
// loads Practice into a relational table and executes
//
//	SELECT Attr1..Attrn FROM practice
//	GROUP BY Attr1..Attrn
//	HAVING COUNT(*) >= f AND COUNT(DISTINCT user) > m-1
//
// against the minidb engine.
type SQLExtractor struct{}

// BuildStatement renders the Algorithm 5 statement for the options;
// exposed so callers can inspect or log the exact SQL executed.
func (SQLExtractor) BuildStatement(opts Options) string {
	opts = opts.withDefaults()
	cols := strings.Join(opts.Attrs, ", ")
	cmp := ">="
	if opts.StrictGreater {
		cmp = ">"
	}
	return fmt.Sprintf(
		"SELECT %s, COUNT(*) AS support, COUNT(DISTINCT user) AS users, MIN(at) AS first_seen, MAX(at) AS last_seen "+
			"FROM practice GROUP BY %s "+
			"HAVING COUNT(*) %s %d AND COUNT(DISTINCT user) > %d "+
			"ORDER BY support DESC, %s",
		cols, cols, cmp, opts.MinSupport, opts.MinDistinctUsers-1, cols)
}

// Extract implements PatternExtractor.
func (x SQLExtractor) Extract(practice []audit.Entry, opts Options) ([]Pattern, error) {
	opts = opts.withDefaults()
	db := minidb.NewDatabase()
	if err := LoadEntries(db, "practice", practice); err != nil {
		return nil, fmt.Errorf("core: load practice: %w", err)
	}
	res, err := db.Exec(x.BuildStatement(opts))
	if err != nil {
		return nil, fmt.Errorf("core: data analysis: %w", err)
	}
	patterns := make([]Pattern, 0, len(res.Rows))
	n := len(opts.Attrs)
	for _, row := range res.Rows {
		terms := make([]policy.Term, n)
		for i, attr := range opts.Attrs {
			terms[i] = policy.T(attr, row[i].AsText())
		}
		rule, err := policy.NewRule(terms...)
		if err != nil {
			return nil, fmt.Errorf("core: pattern rule: %w", err)
		}
		patterns = append(patterns, Pattern{
			Rule:          rule,
			Support:       int(row[n].AsInt()),
			DistinctUsers: int(row[n+1].AsInt()),
			FirstSeen:     row[n+2].AsTime(),
			LastSeen:      row[n+3].AsTime(),
		})
	}
	return patterns, nil
}

// entryAttr extracts a grouping attribute from an audit entry.
func entryAttr(e audit.Entry, attr string) (string, error) {
	switch vocab.Norm(attr) {
	case "data":
		return e.Data, nil
	case "purpose":
		return e.Purpose, nil
	case "authorized":
		return e.Authorized, nil
	case "user":
		return e.User, nil
	case "op":
		return fmt.Sprintf("%d", int(e.Op)), nil
	case "status":
		return fmt.Sprintf("%d", int(e.Status)), nil
	default:
		return "", fmt.Errorf("core: invalid analysis attribute %q", attr)
	}
}
