package mining

import (
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
)

// EpochState is the persistent cross-epoch mining state behind
// core.IncrementalExtractor: a weighted distinct-transaction table
// that each refinement epoch extends with only the newly appended
// practice rows (the log delta), so epoch cost is O(delta + distinct
// transactions) instead of O(total rows). Both engines share it — the
// table is engine-neutral; only the mining pass differs.
//
// The mutex makes Fold/Extract/Reset safe against concurrent epochs;
// it is a leaf lock (nothing else is acquired while it is held).
type EpochState struct {
	mu          sync.Mutex
	opts        core.Options
	keepPartial bool
	fp          bool
	workers     int
	table       *txTable
}

var _ core.IncrementalState = (*EpochState)(nil)

func newEpochState(opts core.Options, keepPartial, fp bool, workers int) *EpochState {
	return &EpochState{
		opts:        opts,
		keepPartial: keepPartial,
		fp:          fp,
		workers:     workers,
		table:       newTxTable(defaultTableShards, true),
	}
}

// Fold projects the new practice rows onto the analysis attributes
// and folds them into the persistent table.
func (s *EpochState) Fold(practice []audit.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return foldEntries(s.table, practice, analysisAttrs(s.opts))
}

// Extract mines the accumulated table and returns the refinement
// patterns for everything folded so far.
func (s *EpochState) Extract() ([]core.Pattern, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := minSupportOf(s.opts)
	if ms < 1 {
		return nil, errMinSupport(ms)
	}
	var sets []mined
	if s.fp {
		sets = fpMine(s.table, ms, s.workers)
	} else {
		sets = aprioriMine(s.table, ms)
	}
	return patternize(s.table, sets, s.opts, s.keepPartial)
}

// Reset discards the accumulated state (the log cursor resynced after
// a structural change such as Reset/Expire/Rotate).
func (s *EpochState) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table = newTxTable(defaultTableShards, true)
}
