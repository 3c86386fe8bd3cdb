package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/audit"
)

// cmdAudit administers durable audit stores. `audit recover -dir D`
// opens the store, replays the WAL tail on top of the checkpoint in
// the store's index (rebuilding the refinement index), prints what
// recovery found, and leaves the store checkpointed — a crashed site
// can be inspected and repaired offline before the service restarts.
// -export writes a JSONL copy of the recovered log.
func cmdAudit(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("audit requires an action: recover")
	}
	switch args[0] {
	case "recover":
		return cmdAuditRecover(args[1:])
	default:
		return fmt.Errorf("unknown audit action %q (want: recover)", args[0])
	}
}

func cmdAuditRecover(args []string) error {
	fs := flag.NewFlagSet("audit recover", flag.ContinueOnError)
	dir := fs.String("dir", "", "durable audit store directory (required)")
	site := fs.String("site", "", "site name for the recovered log")
	checkpoint := fs.Bool("checkpoint", true, "checkpoint after recovery (fold the WAL tail into the store's index)")
	export := fs.String("export", "", "also write the recovered entries to this JSONL file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("audit recover requires -dir")
	}
	// Store errors with no caller to return to (a failed index read
	// under Snapshot, a WAL fault) fail the command.
	var errMu sync.Mutex
	var storeErr error
	onErr := func(err error) {
		errMu.Lock()
		storeErr = errors.Join(storeErr, err)
		errMu.Unlock()
	}
	d, rs, err := audit.OpenDurable(*site, *dir, audit.DurableOptions{OnErr: onErr})
	if err != nil {
		return fmt.Errorf("recover %s: %w", *dir, err)
	}
	defer d.Close()

	fmt.Printf("recovered %s\n", *dir)
	fmt.Printf("  checkpoint entries: %d\n", rs.CheckpointEntries)
	fmt.Printf("  WAL tail entries:   %d (%d segment(s))\n", rs.WALEntries, rs.WALSegments)
	if rs.TornTail {
		fmt.Println("  torn WAL tail:      truncated (crash mid-flush)")
	}
	fmt.Printf("  index groups:       %d\n", rs.IndexGroups)
	fmt.Printf("  elapsed:            %s\n", rs.Elapsed.Round(time.Microsecond))

	st := d.Log().Summary()
	fmt.Printf("log %q: %d entries (%d allowed, %d denied, %d exception)\n",
		d.Log().Site(), st.Total, st.Allowed, st.Denied, st.Exceptions)
	if st.Total > 0 {
		fmt.Printf("  span: %s .. %s\n", st.First.Format("2006-01-02 15:04:05"), st.Last.Format("2006-01-02 15:04:05"))
	}

	if *checkpoint {
		if err := d.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Printf("checkpointed: %d entries durable in the store's index", d.Log().Len())
		if *export == "" {
			fmt.Print(" (-export writes a JSONL copy)")
		}
		fmt.Println()
	}
	if *export != "" {
		es := d.Log().Snapshot()
		errMu.Lock()
		err := storeErr
		errMu.Unlock()
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := audit.WriteJSONL(f, es); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("exported %d entries to %s\n", len(es), *export)
	}
	return nil
}
