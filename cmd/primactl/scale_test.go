package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/vocab"
)

// writeBigVocab materializes the 10x5 synthetic vocabulary (100k
// leaves) as a text file. The CLI's capture helper buffers output
// after the run, so the megabyte-scale vocabulary is written directly
// rather than piped through `vocab -gen`.
func writeBigVocab(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "big.txt")
	if err := os.WriteFile(path, []byte(vocab.Synthetic(10, 5).TextString()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVocabGen: the -gen flag produces a synthetic vocabulary and
// -stats summarizes it without printing 100k lines.
func TestVocabGen(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"vocab", "-gen", "3x2", "-stats"})
	})
	if err != nil {
		t.Fatalf("vocab -gen: %v\n%s", err, out)
	}
	if !strings.Contains(out, "data: 13 value(s), 9 ground") {
		t.Errorf("stats output:\n%s", out)
	}
	if !strings.Contains(out, "purpose:") || !strings.Contains(out, "authorized:") {
		t.Errorf("stats output missing fixed hierarchies:\n%s", out)
	}
}

func TestVocabGenBadSpec(t *testing.T) {
	for _, spec := range []string{"x", "10", "0x3", "4x-1", "2x40"} {
		if _, err := capture(t, func() error {
			return run([]string{"vocab", "-gen", spec})
		}); err == nil {
			t.Errorf("-gen %q accepted", spec)
		}
	}
}

// TestLint100kVocabulary: end-to-end `primactl lint` over a generated
// 100k-leaf vocabulary. This is the ISSUE acceptance workload — it
// only completes because the lint pass never materializes a ground
// Range (a single rule here grounds to 10k × 3 × 4 rules).
func TestLint100kVocabulary(t *testing.T) {
	if testing.Short() {
		t.Skip("100k vocabulary in -short mode")
	}
	vocabFile := writeBigVocab(t)
	policyFile := filepath.Join(t.TempDir(), "policy.txt")
	policy := `data=n1 & purpose=treatment & authorized=nurse
data=n11 & purpose=treatment & authorized=nurse
data=n0 & purpose=billing & authorized=clerk
`
	if err := os.WriteFile(policyFile, []byte(policy), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"lint", "-vocab", vocabFile, "-policy", policyFile, "-json"})
	})
	if exitCode(err) != 1 {
		t.Fatalf("exit code = %d, want 1 (%v)\n%s", exitCode(err), err, out)
	}
	var rep lint.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	counts := findingCounts(rep)
	if counts[lint.SubsumedRule] != 1 {
		t.Errorf("PL005 = %d, want 1: %v", counts[lint.SubsumedRule], counts)
	}
	if counts[lint.OverBroadRule] != 1 {
		t.Errorf("PL008 = %d, want 1: %v", counts[lint.OverBroadRule], counts)
	}
}

// TestCoverageSummary100k: `primactl coverage -explain=false` over the
// generated vocabulary computes Definition 9 symbolically.
func TestCoverageSummary100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k vocabulary in -short mode")
	}
	vocabFile := writeBigVocab(t)
	dir := t.TempDir()
	policyFile := filepath.Join(dir, "policy.txt")
	if err := os.WriteFile(policyFile, []byte("data=n1 & purpose=treatment & authorized=nurse\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	auditFile := filepath.Join(dir, "audit.jsonl")
	// n11111 is a leaf under n1 (1 → 11 → 111 → 1111 → 11111 in the
	// heap numbering); n21111 is a leaf outside n1's subtree.
	audit := `{"time":"2007-01-01T10:00:00Z","op":1,"user":"u1","data":"n11111","purpose":"treatment","authorized":"nurse","status":1}
{"time":"2007-01-01T11:00:00Z","op":1,"user":"u2","data":"n21111","purpose":"billing","authorized":"clerk","status":1}
`
	if err := os.WriteFile(auditFile, []byte(audit), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"coverage", "-vocab", vocabFile, "-policy", policyFile, "-audit", auditFile, "-explain=false"})
	})
	if err != nil {
		t.Fatalf("coverage: %v\n%s", err, out)
	}
	if !strings.Contains(out, "range 10000") {
		t.Errorf("symbolic range card missing:\n%s", out)
	}
	if !strings.Contains(out, "coverage (Definition 9, distinct rules): 50.0%") {
		t.Errorf("coverage output:\n%s", out)
	}
}
