package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

const lintVocab = `data
  clinical
    lab_result
    prescription
  referral
purpose
  treatment
  billing
authorized
  nurse
  doctor
`

// writeLintFixtures materializes a vocabulary plus a clean and a
// dirty policy for the lint command.
func writeLintFixtures(t *testing.T) (vocabFile, cleanPolicy, dirtyPolicy string) {
	t.Helper()
	dir := t.TempDir()
	vocabFile = filepath.Join(dir, "vocab.txt")
	if err := os.WriteFile(vocabFile, []byte(lintVocab), 0o644); err != nil {
		t.Fatal(err)
	}
	cleanPolicy = filepath.Join(dir, "clean.txt")
	clean := `data=clinical & purpose=treatment & authorized=nurse
data=referral & purpose=billing & authorized=doctor
`
	if err := os.WriteFile(cleanPolicy, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	dirtyPolicy = filepath.Join(dir, "dirty.txt")
	// Rule 2 is subsumed by rule 1 (Def. 8); rule 3 uses an unknown
	// value; billing/doctor/referral subtrees stay unreachable.
	dirty := `data=clinical & purpose=treatment & authorized=nurse
data=lab_result & purpose=treatment & authorized=nurse
data=xray & purpose=treatment & authorized=nurse
`
	if err := os.WriteFile(dirtyPolicy, []byte(dirty), 0o644); err != nil {
		t.Fatal(err)
	}
	return vocabFile, cleanPolicy, dirtyPolicy
}

func TestLintCleanPolicy(t *testing.T) {
	vocabFile, clean, _ := writeLintFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"lint", "-vocab", vocabFile, "-policy", clean})
	})
	if err != nil {
		t.Fatalf("clean policy: %v\n%s", err, out)
	}
	if exitCode(err) != 0 {
		t.Errorf("exit code = %d, want 0", exitCode(err))
	}
	if !strings.Contains(out, "0 finding(s)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestLintFindingsExitOne(t *testing.T) {
	vocabFile, _, dirty := writeLintFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"lint", "-vocab", vocabFile, "-policy", dirty})
	})
	if err == nil {
		t.Fatalf("dirty policy accepted:\n%s", out)
	}
	if exitCode(err) != 1 {
		t.Errorf("exit code = %d, want 1 (%v)", exitCode(err), err)
	}
	for _, want := range []string{lint.SubsumedRule, lint.UnknownValue, lint.UnreachableSubtree} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s:\n%s", want, out)
		}
	}
}

func TestLintJSON(t *testing.T) {
	vocabFile, _, dirty := writeLintFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"lint", "-vocab", vocabFile, "-policy", dirty, "-json"})
	})
	if exitCode(err) != 1 {
		t.Fatalf("exit code = %d, want 1", exitCode(err))
	}
	var rep lint.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if rep.Rules != 3 || len(rep.Findings) == 0 {
		t.Errorf("report: %+v", rep)
	}
	counts := findingCounts(rep)
	if counts[lint.SubsumedRule] != 1 || counts[lint.UnknownValue] != 1 {
		t.Errorf("counts: %v", counts)
	}
}

func TestLintUsageErrorsExitTwo(t *testing.T) {
	vocabFile, clean, _ := writeLintFixtures(t)
	cases := [][]string{
		{"lint"},                             // missing -policy
		{"lint", "-policy", "/no/such/file"}, // unreadable policy
		{"lint", "-vocab", "/no/such", "-policy", clean}, // unreadable vocab
		{"lint", "-bogus-flag"},                          // flag error
		{"lint", "-materialize", "-policy", clean},       // removed oracle flag
		{"lint", "-vocab", vocabFile},                    // still missing -policy
	}
	for _, args := range cases {
		_, err := capture(t, func() error { return run(args) })
		if exitCode(err) != 2 {
			t.Errorf("run(%v): exit code = %d, want 2 (%v)", args, exitCode(err), err)
		}
	}
}

func TestExitCodeMapping(t *testing.T) {
	if exitCode(nil) != 0 {
		t.Error("nil error should exit 0")
	}
	if exitCode(os.ErrNotExist) != 1 {
		t.Error("plain errors should exit 1")
	}
}

// findingCounts returns the number of findings per code.
func findingCounts(rep lint.Report) map[string]int {
	out := make(map[string]int)
	for _, f := range rep.Findings {
		out[f.Code]++
	}
	return out
}
