package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRx matches expected-diagnostic annotations in fixtures:
//
//	// want <analyzer> "<message substring>"
var wantRx = regexp.MustCompile(`// want (\w+) "([^"]*)"`)

type want struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
}

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				out = append(out, want{file: e.Name(), line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return out
}

// TestFixtures runs every analyzer — per-package and interprocedural
// — over the deliberately-broken testdata packages and requires an
// exact match between findings and // want annotations — no missing
// and no extra diagnostics.
func TestFixtures(t *testing.T) {
	fixtures := []string{
		"lockcheck", "purity", "errcheck", "codecpair",
		"lockorder", "phileak", "arenasafe",
		"atomicsafe", "goleak", "chanuse",
	}
	for _, fixture := range fixtures {
		t.Run(fixture, func(t *testing.T) {
			dir := filepath.Join("testdata", fixture)
			loader, err := NewLoader(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := loader.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
			}
			findings := runAnalyzers(pkg)
			prog := BuildProgram(loader, []*Package{pkg})
			findings = append(findings, runProgramAnalyzers(analyzers, prog)...)
			wants := parseWants(t, dir)
			if len(wants) == 0 {
				t.Fatal("fixture has no // want annotations")
			}

			matched := make([]bool, len(findings))
			for _, w := range wants {
				found := false
				for i, f := range findings {
					if matched[i] {
						continue
					}
					if filepath.Base(f.Pos.Filename) == w.file && f.Pos.Line == w.line &&
						f.Analyzer == w.analyzer && strings.Contains(f.Message, w.substr) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("missing finding %s:%d [%s] %q\ngot:\n%s",
						w.file, w.line, w.analyzer, w.substr, findingList(findings))
				}
			}
			for i, f := range findings {
				if !matched[i] {
					t.Errorf("unexpected finding %s", f)
				}
			}
		})
	}
}

func findingList(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// TestCleanRepo is the self-test the CI gate relies on: the repo's
// own packages must produce zero findings.
func TestCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("prima-vet ./... exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestExitCodes pins the documented contract: 0 clean, 1 findings,
// 2 usage error.
func TestExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, a := range analyzers {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./testdata/errcheck"}, &stdout, &stderr); code != 1 {
		t.Fatalf("broken fixture exited %d, want 1:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[errcheck]") {
		t.Errorf("findings not printed: %q", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
	if code := run([]string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing dir exited %d, want 2", code)
	}

	// -run with an unknown analyzer is a usage error, never a silent
	// no-op.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-run", "nope", "./testdata/errcheck"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-run nope exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("-run nope stderr = %q, want mention of unknown analyzer", stderr.String())
	}

	// A valid -run subset reports only that analyzer's findings.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-run", "lockorder", "./testdata/lockorder"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-run lockorder exited %d, want 1:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[lockorder]") {
		t.Errorf("lockorder findings missing: %q", stdout.String())
	}
	if strings.Contains(stdout.String(), "[errcheck]") {
		t.Errorf("-run lockorder leaked other analyzers: %q", stdout.String())
	}
}

// TestExpandSkipsTestdata keeps the fixture packages out of ./...
// walks: they are deliberately broken.
func TestExpandSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("./... expanded into %s", d)
		}
	}
	if len(dirs) == 0 {
		t.Error("./... expanded to nothing")
	}
}

// TestOutputModes pins the -json and -sarif wire formats on a broken
// fixture: structured output goes to stdout, exit codes are unchanged,
// and the two flags are mutually exclusive.
func TestOutputModes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./testdata/errcheck"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-json exited %d, want 1:\n%s", code, stderr.String())
	}
	var parsed []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &parsed); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout.String())
	}
	if len(parsed) == 0 || parsed[0].Analyzer == "" || parsed[0].Line == 0 {
		t.Errorf("-json findings malformed: %+v", parsed)
	}
	for _, f := range parsed {
		// Like the SARIF URIs, -json file fields are module-relative so
		// the output is portable across CI machines.
		if filepath.IsAbs(f.File) {
			t.Errorf("-json file %q is absolute, want module-relative", f.File)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-json", "./testdata/cfgloop"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-json on clean fixture exited %d:\n%s", code, stderr.String())
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("-json clean output = %q, want []", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-sarif", "./testdata/errcheck"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-sarif exited %d, want 1:\n%s", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "prima-vet" {
		t.Errorf("SARIF envelope malformed: version=%q runs=%d", log.Version, len(log.Runs))
	}
	if len(log.Runs[0].Results) == 0 {
		t.Fatal("SARIF results empty for broken fixture")
	}
	r := log.Runs[0].Results[0]
	if r.RuleID == "" || len(r.Locations) == 0 || r.Locations[0].PhysicalLocation.Region.StartLine == 0 {
		t.Errorf("SARIF result malformed: %+v", r)
	}
	if uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; strings.HasPrefix(uri, "/") || strings.Contains(uri, "\\") {
		t.Errorf("SARIF uri %q not module-relative slash-separated", uri)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(analyzers) {
		t.Errorf("SARIF rules = %d, want one per analyzer (%d)", len(log.Runs[0].Tool.Driver.Rules), len(analyzers))
	}

	var both bytes.Buffer
	if code := run([]string{"-json", "-sarif"}, &both, &both); code != 2 {
		t.Fatalf("-json -sarif exited %d, want 2", code)
	}
}

// TestWriteLockOrder pins that -write-lockorder is stable: the
// acquisition graph observed in the repo reproduces the checked-in
// lockorder.txt byte-for-byte (the CI sync check depends on this).
// The order is rendered in memory; the file is never written.
func TestWriteLockOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	got, err := regenerateLockOrder(BuildProgram(loader, pkgs), lockOrderPins)
	if err != nil {
		t.Fatal(err)
	}
	if got != lockOrderPins {
		t.Errorf("regenerated lockorder.txt differs from checked-in file:\n%s", got)
	}
}

// TestWriteLockOrderDropsDeadClasses: regeneration keeps a pinned class
// the analysis cannot see lock (Pinned) but drops a pin whose type was
// deleted from its package and one whose whole package is gone.
func TestWriteLockOrderDropsDeadClasses(t *testing.T) {
	loader, pkg := loadFixture(t, "writelockorder")
	class := func(name string) string { return shortClass(pkg.Path+"."+name, loader.Module) }
	gonePkg := shortClass(pkg.Path+"gone.Type", loader.Module)
	existing := "# pinned order\n" + class("Outer") + "\n" + class("Deleted") + "\n" + gonePkg + "\n" +
		class("Pinned") + "\n" + class("Inner") + "\n"
	got, err := regenerateLockOrder(BuildProgram(loader, []*Package{pkg}), existing)
	if err != nil {
		t.Fatal(err)
	}
	want := "# pinned order\n" + class("Outer") + "\n" + class("Pinned") + "\n" + class("Inner") + "\n"
	if got != want {
		t.Errorf("regenerated\n%s\nwant\n%s", got, want)
	}
}

// runAnalyzers applies every per-package analyzer to the package and
// returns the findings sorted by position.
func runAnalyzers(p *Package) []Finding {
	return runSelected(analyzers, p)
}
