package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	prima "repro"
	"repro/internal/scenario"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	_ = w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// writeFixtures materializes the Table 1 scenario on disk.
func writeFixtures(t *testing.T) (policyFile, auditJSONL, auditCSV string) {
	t.Helper()
	dir := t.TempDir()
	policyFile = filepath.Join(dir, "ps.txt")
	f, err := os.Create(policyFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.PolicyStore().WriteText(f); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	auditJSONL = filepath.Join(dir, "log.jsonl")
	var buf bytes.Buffer
	if err := prima.WriteAuditJSONL(&buf, scenario.Table1()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(auditJSONL, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	auditCSV = filepath.Join(dir, "log.csv")
	buf.Reset()
	if err := prima.WriteAuditCSV(&buf, scenario.Table1()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(auditCSV, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return policyFile, auditJSONL, auditCSV
}

func TestDemoFig3(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"demo", "fig3"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"= 50%", "(paper: 50%)", "exception scenarios:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDemoTable1(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"demo", "table1"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"coverage = 30%", "support 5", "coverage after adoption = 80%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCoverageCommand(t *testing.T) {
	ps, jsonl, csv := writeFixtures(t)
	for _, audit := range []string{jsonl, csv} {
		out, err := capture(t, func() error {
			return run([]string{"coverage", "-policy", ps, "-audit", audit})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "30.0% (3/10)") {
			t.Errorf("row coverage missing:\n%s", out)
		}
		if !strings.Contains(out, "50.0% (3/6)") {
			t.Errorf("set coverage missing:\n%s", out)
		}
		if !strings.Contains(out, "near miss") {
			t.Errorf("explanations missing:\n%s", out)
		}
	}
}

func TestRefineCommand(t *testing.T) {
	ps, jsonl, _ := writeFixtures(t)
	outFile := filepath.Join(t.TempDir(), "refined.txt")
	out, err := capture(t, func() error {
		return run([]string{"refine", "-policy", ps, "-audit", jsonl, "-adopt", "-out", outFile})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"coverage before: 30.0%",
		"authorized=Nurse & data=Referral & purpose=Registration",
		"coverage after adoption: 80.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(string(data)), "registration") {
		t.Errorf("refined policy not written:\n%s", data)
	}
	// Mining path produces the same pattern.
	out, err = capture(t, func() error {
		return run([]string{"refine", "-policy", ps, "-audit", jsonl, "-mining"})
	})
	if err != nil || !strings.Contains(out, "data=Referral") {
		t.Errorf("mining refine: %v\n%s", err, out)
	}
	// Strict comparator: nothing found.
	out, err = capture(t, func() error {
		return run([]string{"refine", "-policy", ps, "-audit", jsonl, "-strict"})
	})
	if err != nil || !strings.Contains(out, "no useful patterns") {
		t.Errorf("strict refine: %v\n%s", err, out)
	}
}

func TestPatternsCommand(t *testing.T) {
	ps, jsonl, _ := writeFixtures(t)
	// FP-growth on the Table 1 log finds the §5 pattern.
	out, err := capture(t, func() error {
		return run([]string{"patterns", "-audit", jsonl})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"10 audit rows",
		"authorized=Nurse & data=Referral & purpose=Registration",
		"support=5 users=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// -partial surfaces narrower correlations too.
	out, err = capture(t, func() error {
		return run([]string{"patterns", "-audit", jsonl, "-partial", "-support", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "data=Referral & purpose=Registration  support=") {
		t.Errorf("partial correlation missing:\n%s", out)
	}
	// -policy prunes: after adopting the pattern there is nothing left.
	refined := filepath.Join(t.TempDir(), "refined.txt")
	if _, err := capture(t, func() error {
		return run([]string{"refine", "-policy", ps, "-audit", jsonl, "-adopt", "-out", refined})
	}); err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error {
		return run([]string{"patterns", "-audit", jsonl, "-policy", refined})
	})
	if err != nil || !strings.Contains(out, "no frequent patterns") {
		t.Errorf("pruned patterns: %v\n%s", err, out)
	}
	// Flag errors: FP-growth is the only engine, so -engine is unknown.
	if _, err := capture(t, func() error {
		return run([]string{"patterns", "-audit", jsonl, "-engine", "apriori"})
	}); err == nil {
		t.Error("-engine accepted")
	}
	if _, err := capture(t, func() error { return run([]string{"patterns"}) }); err == nil {
		t.Error("patterns without -audit accepted")
	}
}

func TestGeneralizeCommand(t *testing.T) {
	dir := t.TempDir()
	ps := filepath.Join(dir, "leaves.txt")
	src := `
data=address & purpose=billing & authorized=clerk
data=gender & purpose=billing & authorized=clerk
data=phone & purpose=billing & authorized=clerk
data=birthdate & purpose=billing & authorized=clerk
`
	if err := os.WriteFile(ps, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"generalize", "-policy", ps})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rules: 4 -> 1") || !strings.Contains(out, "data=demographic") {
		t.Errorf("generalize output:\n%s", out)
	}
}

func TestVocabCommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"vocab"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"data", "demographic", "psychiatrist"} {
		if !strings.Contains(out, want) {
			t.Errorf("vocab output missing %q", want)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"bogus"},
		{"demo"},
		{"demo", "bogus"},
		{"coverage"},                        // missing flags
		{"coverage", "-policy", "/no/such"}, // missing audit
		{"refine", "-policy", "/no/such"},   // missing audit
		{"generalize"},                      // missing policy
		{"vocab", "-file", "/no/such/file"}, // unreadable
		{"coverage", "-policy", "/no/such", "-audit", "/no/such"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	if _, err := capture(t, func() error { return run([]string{"help"}) }); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

func TestReportCommand(t *testing.T) {
	ps, jsonl, _ := writeFixtures(t)
	out, err := capture(t, func() error {
		return run([]string{"report", "-policy", ps, "-audit", jsonl, "-title", "Monthly review"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Monthly review",
		"Row coverage",
		"Uncovered access patterns",
		"Audit statistics",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if _, err := capture(t, func() error { return run([]string{"report"}) }); err == nil {
		t.Error("report without flags accepted")
	}
}
