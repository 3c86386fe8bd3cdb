// Package phileak exercises the PHI taint analyzer: values read from
// prima:phi fields must not reach prints, logs, or error strings
// except through a prima:redact helper.
package phileak

import (
	"fmt"
	"log"
)

// Record is an audit-like row.
type Record struct {
	Name string // prima:phi — patient-identifying
	Op   string
}

// Mask is this package's sanctioned redaction helper.
//
// prima:redact
func Mask(s string) string {
	if s == "" {
		return s
	}
	return s[:1] + "***"
}

func direct(r Record) {
	fmt.Println(r.Name) // want phileak "PHI may reach fmt.Println"
	fmt.Println(r.Op)   // clean: Op is not marked
}

func viaLocal(r Record) {
	name := r.Name
	msg := "user=" + name
	log.Printf("%s", msg) // want phileak "PHI may reach log.Printf"
}

// logName prints its argument; callers passing PHI are flagged at
// their call sites, not here (the parameter itself is not PHI).
func logName(s string) {
	log.Println(s)
}

func interproc(r Record) {
	logName(r.Name) // want phileak "PHI passed to"
}

func redacted(r Record) {
	fmt.Println(Mask(r.Name)) // clean: routed through the redactor
}

func carrier(r Record) {
	fmt.Printf("%v\n", r) // want phileak "PHI may reach fmt.Printf"
}

// rebound demonstrates the SSA rebase's flow-sensitivity: the local
// briefly holds PHI but is rebound to a clean value before the print,
// so the old version's taint does not leak onto the new one.
func rebound(r Record) {
	s := r.Name
	s = "redacted"
	fmt.Println(s) // clean: the printed version never held PHI
}

// reboundBranch still reports: only one branch cleans the value, and
// the phi joining the two versions keeps the tainted operand.
func reboundBranch(r Record, ok bool) {
	s := r.Name
	if ok {
		s = "redacted"
	}
	fmt.Println(s) // want phileak "PHI may reach fmt.Println"
}

// dictionary interns values the way a compact audit shard does: rows
// hold ids, and the values live in an annotated slice.
type dictionary struct {
	strs []string // prima:phi — interned values by id
	ids  []uint32
}

// unknownID reads PHI through the annotated slice: the index read
// carries the field's taint into the error string.
func (d *dictionary) unknownID(i int) error {
	return fmt.Errorf("no row for %s", d.strs[d.ids[i]]) // want phileak "PHI may reach fmt.Errorf"
}

// countIDs reads only the ids, which are not marked.
func (d *dictionary) countIDs() error {
	return fmt.Errorf("%d ids, first %d", len(d.ids), d.ids[0]) // clean: ids are not PHI
}
