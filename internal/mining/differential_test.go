package mining_test

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/scenario"
	"repro/internal/workflow"
)

// Extractor-level differential coverage: both engines, all feed paths
// (batch, index-fed, incremental streaming) on seeded simulator
// output, pinned byte-identical down to evidence windows.

// simPractice returns the filtered practice rows of a seeded hospital
// simulation plus the raw entries.
func simPractice(t *testing.T, seed int64, days int) ([]audit.Entry, []audit.Entry) {
	t.Helper()
	sim, err := workflow.New(workflow.DefaultHospital(seed))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sim.Run(0, days)
	if err != nil {
		t.Fatal(err)
	}
	return entries, core.Filter(entries)
}

// TestFPGrowthExtractorDifferentialSim pins FPGrowth.Extract to
// Extractor.Extract on seeded simulator output across option
// variants — including the evidence (users, first/last seen) and the
// pattern order, not just the rule set.
func TestFPGrowthExtractorDifferentialSim(t *testing.T) {
	_, practice := simPractice(t, 42, 30)
	if len(practice) == 0 {
		t.Fatal("simulator produced no practice rows")
	}
	variants := []struct {
		name string
		kp   bool
		opts core.Options
	}{
		{"defaults", false, core.Options{}},
		{"support3", false, core.Options{MinSupport: 3}},
		{"keep-partial", true, core.Options{MinSupport: 3}},
		{"users1", false, core.Options{MinSupport: 2, MinDistinctUsers: 1}},
		{"wide-attrs", true, core.Options{MinSupport: 3, Attrs: []string{"data", "purpose", "authorized", "op"}}},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			want, err := mining.Extractor{KeepPartial: tc.kp}.Extract(practice, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mining.FPGrowth{KeepPartial: tc.kp}.Extract(practice, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engines diverge (%d vs %d patterns)\napriori: %v\nfpgrowth: %v",
					len(want), len(got), want, got)
			}
			if tc.name == "defaults" && len(want) == 0 {
				t.Error("defaults variant mined nothing; differential test is vacuous")
			}
		})
	}
}

// TestExtractLogDifferential pins the index-fed path (ExtractLog over
// audit.PracticeShards) to the snapshot path for both engines, and
// checks the not-served fallback for non-default attributes.
func TestExtractLogDifferential(t *testing.T) {
	entries, practice := simPractice(t, 7, 20)
	l := audit.NewLog("diff")
	if err := l.Append(entries...); err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MinSupport: 3}
	want, err := mining.Extractor{}.Extract(practice, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		le   core.LogExtractor
	}{
		{"apriori", mining.Extractor{}},
		{"fpgrowth", mining.FPGrowth{}},
	} {
		got, served, err := tc.le.ExtractLog(l, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !served {
			t.Fatalf("%s: default attrs must be index-servable", tc.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: index-fed diverges from snapshot\nindex: %v\nsnapshot: %v", tc.name, got, want)
		}
		_, served, err = tc.le.ExtractLog(l, core.Options{MinSupport: 3, Attrs: []string{"data", "user"}})
		if err != nil || served {
			t.Fatalf("%s: custom attrs must not be index-served (served=%v, err=%v)", tc.name, served, err)
		}
	}
	if len(want) == 0 {
		t.Error("no patterns mined; differential test is vacuous")
	}
}

// TestRefineFromLogUsesLogExtractor pins RefineFromLog with a mining
// extractor to the snapshot Refinement pipeline — the index-fed path
// must change the cost, not the result (pruning included).
func TestRefineFromLogUsesLogExtractor(t *testing.T) {
	entries, _ := simPractice(t, 13, 15)
	v := scenario.Vocabulary()
	l := audit.NewLog("rfl")
	if err := l.Append(entries...); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    core.PatternExtractor
	}{
		{"apriori", mining.Extractor{}},
		{"fpgrowth", mining.FPGrowth{}},
	} {
		opts := core.Options{MinSupport: 3, Extractor: tc.x}
		ps := scenario.PolicyStore()
		want, err := core.Refinement(ps, l.Snapshot(), v, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.RefineFromLog(ps, l, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RefineFromLog diverges from Refinement\nlog: %v\nsnapshot: %v", tc.name, got, want)
		}
	}
}

// TestStreamSessionIncrementalDifferential drives both mining engines
// through StreamSession's incremental path against the sequential
// Session over chunked simulator appends: every round's patterns,
// coverage, and adopted rules must match, while the stream side folds
// only each round's delta.
func TestStreamSessionIncrementalDifferential(t *testing.T) {
	entries, _ := simPractice(t, 99, 24)
	third := len(entries) / 3
	chunks := [][]audit.Entry{entries[:third], entries[third : 2*third], entries[2*third:]}
	for _, tc := range []struct {
		name string
		x    core.PatternExtractor
	}{
		{"apriori", mining.Extractor{}},
		{"fpgrowth", mining.FPGrowth{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := scenario.Vocabulary()
			opts := core.Options{MinSupport: 3, Extractor: tc.x}
			psSeq := scenario.PolicyStore()
			psStream := scenario.PolicyStore()
			l := audit.NewLog("inc")
			seq := core.NewSession(psSeq, v, opts)
			stream := core.NewStreamSession(l, psStream, v, opts)

			var cumulative []audit.Entry
			for i, chunk := range chunks {
				cumulative = append(cumulative, chunk...)
				if err := l.Append(chunk...); err != nil {
					t.Fatal(err)
				}
				seqRound, err := seq.Run(cumulative, core.AdoptAll)
				if err != nil {
					t.Fatal(err)
				}
				streamRound, err := stream.Run(core.AdoptAll)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(streamRound.Patterns, seqRound.Patterns) {
					t.Fatalf("chunk %d: stream patterns %v, seq %v", i, streamRound.Patterns, seqRound.Patterns)
				}
				if streamRound.CoverageAfter != seqRound.CoverageAfter {
					t.Fatalf("chunk %d coverage: %v vs %v", i, streamRound.CoverageAfter, seqRound.CoverageAfter)
				}
			}
			if psStream.Len() != psSeq.Len() {
				t.Fatalf("policies diverge: %d vs %d rules", psStream.Len(), psSeq.Len())
			}
		})
	}
}

// TestStreamSessionIncrementalResync checks the structural-change
// protocol: after Log.Reset the delta cursor resyncs and the
// incremental state must discard its accumulated table, not
// double-count the re-appended rows.
func TestStreamSessionIncrementalResync(t *testing.T) {
	v := scenario.Vocabulary()
	table := scenario.Table1()
	opts := core.Options{MinSupport: 3, Extractor: mining.FPGrowth{}}

	l := audit.NewLog("resync")
	stream := core.NewStreamSession(l, scenario.PolicyStore(), v, opts)
	if err := l.Append(table...); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Run(core.AdoptAll); err != nil {
		t.Fatal(err)
	}

	l.Reset()
	if err := l.Append(table...); err != nil {
		t.Fatal(err)
	}
	round, err := stream.Run(core.AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh session over the same single append is the oracle: if
	// the resync failed, supports double.
	fresh := core.NewStreamSession(audit.NewLog("fresh"), scenario.PolicyStore(), v, opts)
	freshLog := fresh.Log
	if err := freshLog.Append(table...); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(core.AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	// The first run adopted the pattern into the stream session's
	// store, so compare raw support evidence via the rounds' practice
	// counts rather than the pruned pattern lists.
	if round.Practice != want.Practice || round.Entries != want.Entries {
		t.Fatalf("after resync: practice/entries %d/%d, want %d/%d",
			round.Practice, round.Entries, want.Practice, want.Entries)
	}
	for _, r := range stream.Rounds() {
		if len(r.Rejected) != 0 {
			t.Fatalf("unexpected rejections: %v", r.Rejected)
		}
	}
}

// TestExtractorEdgeCases covers empty practice and below-support
// inputs for both engines.
func TestExtractorEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    core.PatternExtractor
	}{
		{"apriori", mining.Extractor{}},
		{"fpgrowth", mining.FPGrowth{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pats, err := tc.x.Extract(nil, core.Options{})
			if err != nil || len(pats) != 0 {
				t.Errorf("empty practice: %v, %v", pats, err)
			}
			// Table 1 has a support-5 pattern; threshold 6 must mine nothing.
			pats, err = tc.x.Extract(core.Filter(scenario.Table1()), core.Options{MinSupport: 6})
			if err != nil || len(pats) != 0 {
				t.Errorf("below support: %v, %v", pats, err)
			}
			// Invalid minSupport must error, not mine everything.
			if _, err := tc.x.Extract(core.Filter(scenario.Table1()), core.Options{MinSupport: -1}); err == nil {
				t.Error("negative minSupport accepted")
			}
		})
	}
}

// TestKeepPartialDifferential pins the KeepPartial correlation
// surface across engines — the partial itemsets are exactly where
// tree-pruning bugs would diverge from the levelwise oracle.
func TestKeepPartialDifferential(t *testing.T) {
	_, practice := simPractice(t, 5, 20)
	opts := core.Options{MinSupport: 4, MinDistinctUsers: 2}
	want, err := mining.Extractor{KeepPartial: true}.Extract(practice, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mining.FPGrowth{KeepPartial: true}.Extract(practice, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("KeepPartial diverges: %v vs %v", got, want)
	}
	partial := 0
	for _, p := range want {
		if p.Rule.Len() < len(core.DefaultAttrs) {
			partial++
		}
	}
	if partial == 0 {
		t.Error("no partial-width patterns; KeepPartial test is vacuous")
	}
}
