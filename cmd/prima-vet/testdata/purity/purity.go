// Package purityfix triggers the puritycheck analyzer.
package purityfix

import (
	"sort"
	"time"
)

// Coverage is an analyzer root; stamp is reachable from it.
func Coverage(counts map[string]int) []string {
	var out []string
	for k := range counts { // want puritycheck "appends inside a range over map counts without sorting"
		out = append(out, k)
	}
	stamp()
	return out
}

func stamp() time.Time {
	return time.Now() // want puritycheck "calls time.Now"
}

// SortedNames is clean: it sorts what the map iteration produced.
func SortedNames(counts map[string]int) []string {
	out := make([]string, 0, len(counts))
	for k := range counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Buckets is clean: each bucket is rebuilt inside one iteration, from
// a slice, and stored back under that iteration's own key.
func Buckets(m map[string][]int, keep []bool) {
	for k, b := range m {
		kept := b[:0]
		for _, i := range b {
			if keep[i] {
				kept = append(kept, i)
			}
		}
		m[k] = kept
	}
}

// Last builds its slice inside the loop, but the slice escapes the
// iteration into a variable declared outside it.
func Last(m map[string][]int) []int {
	var last []int
	for _, b := range m { // want puritycheck "appends inside a range over map m without sorting"
		var c []int
		c = append(c, b...)
		last = c
	}
	return last
}

// Helper is not reachable from any root, so its clock use is the
// caller's business, not the algebra's.
func Helper() time.Time { return time.Now() }
