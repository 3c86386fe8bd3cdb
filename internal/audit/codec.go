package audit

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteJSONL writes entries as JSON Lines, one entry per line, in the
// bytes a json.Encoder would write.
func WriteJSONL(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range entries {
		var err error
		if line, err = appendJSONLine(line[:0], &entries[i]); err != nil {
			return fmt.Errorf("audit: encode entry %d: %w", i, err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads entries written by WriteJSONL, validating each.
func ReadJSONL(r io.Reader) ([]Entry, error) {
	var out []Entry
	dec := json.NewDecoder(r)
	for i := 0; ; i++ {
		var e Entry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("audit: decode entry %d: %w", i, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("audit: entry %d: %w", i, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// plainJSON reports whether every byte of v can be emitted inside a
// JSON string verbatim under encoding/json's default (HTML-escaping)
// rules: printable ASCII excluding the quote, backslash and the
// HTML-significant characters.
func plainJSON(v string) bool {
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// rfc3339 reports whether RFC 3339, and with it encoding/json, can
// express t: a four-digit year and a zone offset under a day.
func rfc3339(t time.Time) bool {
	_, off := t.Zone()
	y := t.Year()
	return 0 <= y && y <= 9999 && -MaxZoneOffset <= off && off <= MaxZoneOffset
}

// appendJSONLine encodes the entry exactly as a stdlib json.Encoder
// would — same field order, omitempty handling, HTML escaping and
// trailing newline — but without reflection, which would dominate the
// per-entry export cost. Entries carrying bytes outside the plain
// ASCII fast path, or a time RFC 3339 cannot express, fall back to
// encoding/json for byte-identical escaping and the same error.
func appendJSONLine(dst []byte, e *Entry) ([]byte, error) {
	if !plainJSON(e.User) || !plainJSON(e.Data) || !plainJSON(e.Purpose) ||
		!plainJSON(e.Authorized) || !plainJSON(e.Site) || !plainJSON(e.Reason) || !rfc3339(e.Time) {
		b, err := json.Marshal(e)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, `{"time":"`...)
	dst = e.Time.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","op":`...)
	dst = strconv.AppendInt(dst, int64(e.Op), 10)
	dst = append(dst, `,"user":"`...)
	dst = append(dst, e.User...)
	dst = append(dst, `","data":"`...)
	dst = append(dst, e.Data...)
	dst = append(dst, `","purpose":"`...)
	dst = append(dst, e.Purpose...)
	dst = append(dst, `","authorized":"`...)
	dst = append(dst, e.Authorized...)
	dst = append(dst, `","status":`...)
	dst = strconv.AppendInt(dst, int64(e.Status), 10)
	if e.Site != "" {
		dst = append(dst, `,"site":"`...)
		dst = append(dst, e.Site...)
		dst = append(dst, '"')
	}
	if e.Reason != "" {
		dst = append(dst, `,"reason":"`...)
		dst = append(dst, e.Reason...)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...), nil
}

// AppendSinkJSON appends the hand-rolled JSON-line encoding of e to
// dst — the exact bytes WriteJSONL writes per entry, the JSONL export
// format. The durable store writes no JSONL; its WAL and index hold
// binary records. Exported as the baseline for the wire codec
// benchmarks: the binary batch codec's per-entry cost is measured
// against this encoder.
func AppendSinkJSON(dst []byte, e *Entry) ([]byte, error) {
	return appendJSONLine(dst, e)
}

// csvHeader is the column order of the CSV codec; the first seven
// columns are the paper's Table 1 schema.
var csvHeader = []string{"time", "op", "user", "data", "purpose", "authorized", "status", "site", "reason"}

// WriteCSV writes entries as CSV with a header row (Table 1 layout).
func WriteCSV(w io.Writer, entries []Entry) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("audit: write header: %w", err)
	}
	for i, e := range entries {
		rec := []string{
			e.Time.UTC().Format(time.RFC3339Nano),
			strconv.Itoa(int(e.Op)),
			e.User,
			e.Data,
			e.Purpose,
			e.Authorized,
			strconv.Itoa(int(e.Status)),
			e.Site,
			e.Reason,
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("audit: write entry %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads entries written by WriteCSV. The site and reason
// columns are optional so that externally produced seven-column files
// in the paper's exact Table 1 layout load unchanged.
func ReadCSV(r io.Reader) ([]Entry, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("audit: read csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, nil
	}
	start := 0
	if len(recs[0]) > 0 && recs[0][0] == "time" {
		start = 1 // skip header
	}
	var out []Entry
	for i := start; i < len(recs); i++ {
		rec := recs[i]
		if len(rec) < 7 {
			return nil, fmt.Errorf("audit: row %d has %d columns, want at least 7", i+1, len(rec))
		}
		ts, err := time.Parse(time.RFC3339Nano, rec[0])
		if err != nil {
			return nil, fmt.Errorf("audit: row %d: bad time %q: %w", i+1, rec[0], err)
		}
		op, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("audit: row %d: bad op %q: %w", i+1, rec[1], err)
		}
		status, err := strconv.Atoi(rec[6])
		if err != nil {
			return nil, fmt.Errorf("audit: row %d: bad status %q: %w", i+1, rec[6], err)
		}
		e := Entry{
			Time:       ts,
			Op:         Op(op),
			User:       rec[2],
			Data:       rec[3],
			Purpose:    rec[4],
			Authorized: rec[5],
			Status:     Status(status),
		}
		if len(rec) > 7 {
			e.Site = rec[7]
		}
		if len(rec) > 8 {
			e.Reason = rec[8]
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("audit: row %d: %w", i+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}
