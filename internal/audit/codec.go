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

// ReadJSONLTolerant reads entries like ReadJSONL but tolerates the
// one kind of damage a crash mid-append leaves behind: a truncated
// final line. A last line that does not parse as a complete entry
// (and is not newline-terminated) is dropped and reported through
// truncated; a malformed line anywhere else is still an error, since
// mid-file corruption is never the product of a torn write.
func ReadJSONLTolerant(r io.Reader) (entries []Entry, truncated bool, err error) {
	br := bufio.NewReader(r)
	for i := 0; ; i++ {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 && rerr != nil {
			break
		}
		var e Entry
		if jerr := json.Unmarshal(line, &e); jerr != nil {
			if rerr == io.EOF {
				// Torn tail: the file ends inside this line.
				return entries, true, nil
			}
			return nil, false, fmt.Errorf("audit: decode entry %d: %w", i, jerr)
		}
		if verr := e.Validate(); verr != nil {
			return nil, false, fmt.Errorf("audit: entry %d: %w", i, verr)
		}
		entries = append(entries, e)
		if rerr != nil {
			break
		}
	}
	return entries, false, nil
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
