// Package writelockorder is the -write-lockorder fixture: Outer is
// held while Inner is locked, and Pinned is locked alone, so only a
// pin orders it. The pinned order the test regenerates also names a
// type this package no longer declares and a package that no longer
// exists; both must drop out.
package writelockorder

import "sync"

type Outer struct {
	mu sync.Mutex
	in Inner
}

type Inner struct {
	mu sync.Mutex
	n  int
}

type Pinned struct {
	mu sync.Mutex
	n  int
}

func (o *Outer) bump() {
	o.mu.Lock()
	o.in.mu.Lock()
	o.in.n++
	o.in.mu.Unlock()
	o.mu.Unlock()
}

func (p *Pinned) bump() {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
}
