// Package minidb is a small, embedded, in-memory relational engine
// with a SQL subset. It stands in for the clinical database and the
// DB2 backend of the paper's first PRIMA instantiation: the policy
// refinement dataAnalysis routine (Algorithm 5) is specified as a SQL
// GROUP BY / HAVING statement and is executed verbatim against this
// engine, and the HDB Active Enforcement middleware (paper Figure 5)
// rewrites queries destined for it.
//
// Supported statements: CREATE TABLE, DROP TABLE, INSERT, SELECT
// (WHERE, GROUP BY, HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT,
// aggregates COUNT/COUNT(DISTINCT)/SUM/AVG/MIN/MAX), UPDATE, DELETE.
package minidb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime types of values.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindText
	KindTime
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a SQL value: one of NULL, BOOL, INT, FLOAT, TEXT, TIMESTAMP.
// It is 40 bytes, since a table holds one per cell: n carries an INT,
// a BOOL as 0/1 and a FLOAT's bits; a TIMESTAMP points at its exact
// time.Time, location included.
type Value struct {
	kind Kind
	n    int64
	s    string
	t    *time.Time
}

// Constructors.

// Null returns the NULL value.
func Null() Value { return Value{kind: KindNull} }

// Bool returns a BOOL value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Int returns an INT value.
func Int(i int64) Value { return Value{kind: KindInt, n: i} }

// Float returns a FLOAT value.
func Float(f float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(f))} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{kind: KindText, s: s} }

// Time returns a TIMESTAMP value.
func Time(t time.Time) Value { return Value{kind: KindTime, t: &t} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload (valid only for KindBool).
func (v Value) AsBool() bool { return v.kind == KindBool && v.n != 0 }

// float returns the FLOAT payload (valid only for KindFloat).
func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// AsInt returns the integer payload, coercing FLOAT and BOOL.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.n
	case KindFloat:
		return int64(v.float())
	default:
		return 0
	}
}

// AsFloat returns the numeric payload as float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt:
		return float64(v.n)
	default:
		return 0
	}
}

// AsText returns the string payload; non-text kinds are rendered.
func (v Value) AsText() string {
	if v.kind == KindText {
		return v.s
	}
	return v.String()
}

// AsTime returns the timestamp payload (valid only for KindTime).
func (v Value) AsTime() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return *v.t
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindText:
		return v.s
	case KindTime:
		return v.t.UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// key returns a canonical representation used for grouping, DISTINCT
// and IN-set membership. Numeric values that are equal compare to the
// same key.
func (v Value) key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindBool:
		if v.n != 0 {
			return "b1"
		}
		return "b0"
	case KindInt:
		return "f" + strconv.FormatFloat(float64(v.n), 'g', -1, 64)
	case KindFloat:
		return "f" + strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindText:
		return "s" + v.s
	case KindTime:
		return "t" + strconv.FormatInt(v.t.UnixNano(), 10)
	default:
		return "?"
	}
}

func (v Value) isNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// compare returns -1, 0, or 1, with ok=false when the values are not
// comparable (including any NULL operand).
func compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.isNumeric() && b.isNumeric():
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	case a.kind == KindText && b.kind == KindText:
		return strings.Compare(a.s, b.s), true
	case a.kind == KindTime && b.kind == KindTime:
		switch {
		case a.t.Before(*b.t):
			return -1, true
		case a.t.After(*b.t):
			return 1, true
		default:
			return 0, true
		}
	case a.kind == KindBool && b.kind == KindBool:
		switch {
		case a.n == b.n:
			return 0, true
		case a.n == 0:
			return -1, true
		default:
			return 1, true
		}
	// Text/time interoperability: timestamps are often written as
	// string literals in queries.
	case a.kind == KindTime && b.kind == KindText:
		if bt, err := parseTimeLiteral(b.s); err == nil {
			return compare(a, Time(bt))
		}
		return 0, false
	case a.kind == KindText && b.kind == KindTime:
		if at, err := parseTimeLiteral(a.s); err == nil {
			return compare(Time(at), b)
		}
		return 0, false
	default:
		return 0, false
	}
}

func parseTimeLiteral(s string) (time.Time, error) {
	for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("minidb: cannot parse %q as timestamp", s)
}

// ColumnType is a declared column type.
type ColumnType int

// Column types accepted by CREATE TABLE.
const (
	TypeInt ColumnType = iota
	TypeFloat
	TypeText
	TypeBool
	TypeTime
)

// String names the column type in SQL.
func (t ColumnType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	case TypeTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// coerce converts v for storage into a column of type t.
func coerce(v Value, t ColumnType) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.kind {
		case KindInt:
			return v, nil
		case KindFloat:
			return Int(int64(v.float())), nil
		case KindBool:
			return Int(v.AsInt()), nil
		}
	case TypeFloat:
		if v.isNumeric() {
			return Float(v.AsFloat()), nil
		}
	case TypeText:
		if v.kind == KindText {
			return v, nil
		}
		return Text(v.String()), nil
	case TypeBool:
		if v.kind == KindBool {
			return v, nil
		}
		if v.kind == KindInt {
			return Bool(v.n != 0), nil
		}
	case TypeTime:
		if v.kind == KindTime {
			return v, nil
		}
		if v.kind == KindText {
			t, err := parseTimeLiteral(v.s)
			if err != nil {
				return Value{}, err
			}
			return Time(t), nil
		}
	}
	return Value{}, fmt.Errorf("minidb: cannot store %s value %s in %s column", v.kind, v, t)
}
