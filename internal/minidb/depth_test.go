package minidb

import (
	"runtime"
	"strings"
	"testing"
)

// stackGrowth parses src on a fresh goroutine and returns how far the
// stack in use grew, read while the goroutine still held the stack the
// parse left it, and the parse error.
func stackGrowth(src string) (uint64, error) {
	type result struct {
		err   error
		after uint64
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan result)
	go func() {
		_, err := Parse(src)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		done <- result{err, after.StackInuse}
	}()
	r := <-done
	if r.after < before.StackInuse {
		return 0, r.err
	}
	return r.after - before.StackInuse, r.err
}

// TestParseDepthBound checks the expression nesting bound: every
// nesting form parses at maxDepth and fails one level past it, and
// 100 000 '(' fail with a parse error after a bounded stack growth
// (without the bound the parse recursed 100 000 levels, about 128 MiB
// of stack).
func TestParseDepthBound(t *testing.T) {
	nest := map[string]func(n int) string{
		"parens":   func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) },
		"not":      func(n int) string { return strings.Repeat("NOT ", n) + "TRUE" },
		"minus":    func(n int) string { return strings.Repeat("- ", n) + "1" },
		"args":     func(n int) string { return strings.Repeat("ABS(", n) + "1" + strings.Repeat(")", n) },
		"in-lists": func(n int) string { return strings.Repeat("1 IN (", n) + "1" + strings.Repeat(")", n) },
	}
	for name, f := range nest {
		// The WHERE clause is itself one level.
		if _, err := Parse("SELECT * FROM t WHERE " + f(maxDepth-1)); err != nil {
			t.Errorf("%s: %d levels: %v", name, maxDepth, err)
		}
		if _, err := Parse("SELECT * FROM t WHERE " + f(maxDepth)); err == nil {
			t.Errorf("%s: %d levels parsed, want a nesting error", name, maxDepth+1)
		}
	}

	grew, err := stackGrowth("SELECT * FROM t WHERE " + strings.Repeat("(", 100_000))
	if err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Errorf("100 000 '(': err = %v, want a nesting error", err)
	}
	const bound = 1 << 20
	if grew > bound {
		t.Fatalf("100 000 '(' grew the stack in use by %d bytes, bound %d", grew, bound)
	}
	t.Logf("100 000 '(': stack in use grew %d bytes", grew)
}

// parenDepth returns the deepest '(' nesting among src's tokens, or -1
// when src does not lex.
func parenDepth(src string) int {
	toks, err := lex(src)
	if err != nil {
		return -1
	}
	depth, deepest := 0, 0
	for _, t := range toks {
		if t.kind != tokPunct {
			continue
		}
		switch t.text {
		case "(":
			depth++
			deepest = max(deepest, depth)
		case ")":
			depth--
		}
	}
	return deepest
}

// FuzzParse feeds arbitrary SQL to Parse. It must not panic, and SQL
// whose parentheses nest deeper than maxDepth must fail: each nesting
// paren of a statement that parses opens an expression level (a
// column or value list opens one paren around at most one level less).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"SELECT data, COUNT(*) FROM practice WHERE status = 0 GROUP BY data HAVING COUNT(*) >= 5 ORDER BY 2 DESC LIMIT 10",
		"SELECT * FROM t WHERE NOT (a = 1 OR -b < ABS(-(c)))",
		"INSERT INTO t (a, b) VALUES ((1), 'x')",
		"UPDATE t SET a = -(-(1)) WHERE b IN (1, (2), 3)",
		"SELECT * FROM t WHERE " + strings.Repeat("(", maxDepth+1) + "1" + strings.Repeat(")", maxDepth+1),
		"SELECT * FROM t WHERE " + strings.Repeat("NOT ", maxDepth+1) + "TRUE",
		"SELECT * FROM t WHERE " + strings.Repeat("(", 10_000),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		if d := parenDepth(src); err == nil && d > maxDepth {
			t.Fatalf("parsed with parentheses %d deep, bound %d", d, maxDepth)
		}
	})
}
