package main

import (
	"fmt"
	"go/ast"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// writeLockOrder is the -write-lockorder path: it regenerates
// cmd/prima-vet/lockorder.txt against the file's current contents and
// writes the result back.
func writeLockOrder(prog *Program, stderr io.Writer) int {
	path := filepath.Join(prog.Loader.Root, "cmd", "prima-vet", "lockorder.txt")
	existing := lockOrderPins
	if data, err := os.ReadFile(path); err == nil {
		existing = string(data)
	}
	out, err := regenerateLockOrder(prog, existing)
	if err == nil {
		err = os.WriteFile(path, []byte(out), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "prima-vet: %v\n", err)
		return 2
	}
	return 0
}

// regenerateLockOrder renders lockorder.txt from the acquisition
// graph observed in the loaded program, given the existing file:
//
//   - the node set is every lock class acquired anywhere, plus every
//     class already pinned (manual pins for classes the analysis
//     cannot currently see stay put);
//   - the edges are the observed held->acquired pairs;
//   - the order is a topological sort, tie-broken by the existing
//     file's rank (then name) so regeneration is stable and minimal
//     against the checked-in order.
//
// Leading comment lines of the existing file are preserved verbatim.
// An acquisition cycle cannot be linearized: the classes involved are
// named in the error (run the lockorder analyzer to see the offending
// edges).
func regenerateLockOrder(prog *Program, existing string) (string, error) {
	var header []string
	for _, line := range strings.Split(existing, "\n") {
		if t := strings.TrimSpace(line); t != "" && !strings.HasPrefix(t, "#") {
			break
		}
		header = append(header, line)
	}
	rank := parseLockOrder(existing)

	short := func(class string) string { return shortClass(class, prog.Loader.Module) }
	classes := make(map[string]bool, len(rank))
	for c := range rank {
		classes[c] = true
	}
	for _, n := range prog.CG.Nodes() {
		n := n
		ownBody(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if class, op := lockEvent(prog, n, call); class != "" && (op == "Lock" || op == "RLock") {
					classes[short(class)] = true
				}
			}
			return true
		})
	}

	adj := make(map[string]map[string]bool)
	indeg := make(map[string]int, len(classes))
	for c := range classes {
		indeg[c] = 0
	}
	for _, e := range collectLockEdges(prog) {
		from, to := short(e.from), short(e.to)
		if from == to || adj[from][to] {
			continue
		}
		if adj[from] == nil {
			adj[from] = make(map[string]bool)
		}
		adj[from][to] = true
		indeg[to]++
	}

	// Kahn's algorithm; the ready set always yields the class closest
	// to its existing pinned position (unpinned classes sort last, by
	// name).
	better := func(a, b string) bool {
		ra, aok := rank[a]
		rb, bok := rank[b]
		switch {
		case aok && bok && ra != rb:
			return ra < rb
		case aok != bok:
			return aok
		default:
			return a < b
		}
	}
	var ready, order []string
	for c := range classes {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if better(ready[i], ready[best]) {
				best = i
			}
		}
		c := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, c)
		for succ := range adj[c] {
			if indeg[succ]--; indeg[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	if len(order) != len(classes) {
		var stuck []string
		for c := range classes {
			if indeg[c] > 0 {
				stuck = append(stuck, c)
			}
		}
		sort.Strings(stuck)
		return "", fmt.Errorf("acquisition graph has a cycle through %s; fix the deadlock before pinning an order",
			strings.Join(stuck, ", "))
	}

	var sb strings.Builder
	for _, line := range header {
		sb.WriteString(line)
		sb.WriteString("\n")
	}
	for _, c := range order {
		sb.WriteString(c)
		sb.WriteString("\n")
	}
	return sb.String(), nil
}
