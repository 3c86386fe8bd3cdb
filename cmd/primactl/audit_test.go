package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/scenario"
)

// TestAuditRecover builds a durable store with an un-checkpointed WAL
// tail, then drives `audit recover` over it: the command must report
// the tail, checkpoint it into the store's index, and export the
// recovered entries as JSONL.
func TestAuditRecover(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "audit")
	entries := scenario.Table1()

	d, _, err := audit.OpenDurable("s1", store, audit.DurableOptions{CommitInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(entries...); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	export := filepath.Join(dir, "out.jsonl")
	out, err := capture(t, func() error {
		return run([]string{"audit", "recover", "-dir", store, "-site", "s1", "-export", export})
	})
	if err != nil {
		t.Fatalf("audit recover: %v\n%s", err, out)
	}
	for _, want := range []string{
		"WAL tail entries:",
		"checkpointed:",
		"exported",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "entries (") {
		t.Errorf("output missing summary line:\n%s", out)
	}

	// The export is the JSONL copy of the log in append order, and the
	// only one: the store itself keeps no JSONL.
	stamped := append([]audit.Entry(nil), entries...)
	for i := range stamped {
		if stamped[i].Site == "" {
			stamped[i].Site = "s1"
		}
	}
	var want bytes.Buffer
	if err := audit.WriteJSONL(&want, stamped); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(export)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("export is not WriteJSONL of the append order:\n%s", raw)
	}
	if _, err := os.Stat(filepath.Join(store, "log.jsonl")); !os.IsNotExist(err) {
		t.Errorf("store directory holds a log.jsonl (stat err %v)", err)
	}

	// Second run starts from the checkpoint: no WAL tail left. Without
	// -export it points at -export for a JSONL copy.
	out, err = capture(t, func() error {
		return run([]string{"audit", "recover", "-dir", store, "-site", "s1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "WAL tail entries:   0") {
		t.Errorf("second recovery still replays a tail:\n%s", out)
	}
	if !strings.Contains(out, "in the store's index (-export writes a JSONL copy)") {
		t.Errorf("checkpoint line does not point at -export:\n%s", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"audit", "recover", "-dir", store, "-site", "s1", "-checkpoint=false"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "checkpointed:") {
		t.Errorf("-checkpoint=false still checkpointed:\n%s", out)
	}

	// Usage errors.
	if _, err := capture(t, func() error { return run([]string{"audit"}) }); err == nil {
		t.Error("bare audit accepted")
	}
	if _, err := capture(t, func() error { return run([]string{"audit", "recover"}) }); err == nil {
		t.Error("audit recover without -dir accepted")
	}
	if _, err := capture(t, func() error { return run([]string{"audit", "rotate"}) }); err == nil {
		t.Error("unknown audit action accepted")
	}
}
