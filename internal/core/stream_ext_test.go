package core_test

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/workflow"
)

// patternKeys flattens a pattern list into a comparable signature
// including order.
func patternKeys(ps []core.Pattern) []string {
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Rule.Key())
	}
	return out
}

// TestStreamSessionMatchesSessionSimulated runs multi-epoch hospital
// traffic through both pipelines over the identical entry stream and
// requires every round to agree — the Fig. 3 "coverage improves per
// epoch" behaviour, byte-identical between paths.
func TestStreamSessionMatchesSessionSimulated(t *testing.T) {
	cfg := workflow.DefaultHospital(11)
	sim, err := workflow.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var epochs [][]audit.Entry
	for e := 0; e < 3; e++ {
		entries, err := sim.Run(e*10, 10)
		if err != nil {
			t.Fatal(err)
		}
		epochs = append(epochs, entries)
	}

	psSeq := cfg.Policy.Clone()
	psStream := cfg.Policy.Clone()
	v := cfg.Vocab

	l := audit.NewLog("sim")
	seq := core.NewSession(psSeq, v, core.Options{})
	stream := core.NewStreamSession(l, psStream, v, core.Options{})

	var cumulative []audit.Entry
	for e, entries := range epochs {
		cumulative = append(cumulative, entries...)
		if err := l.Append(entries...); err != nil {
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
		if streamRound.CoverageBefore != seqRound.CoverageBefore ||
			streamRound.CoverageAfter != seqRound.CoverageAfter ||
			streamRound.Entries != seqRound.Entries ||
			streamRound.Practice != seqRound.Practice {
			t.Fatalf("epoch %d diverges: stream %+v, seq %+v", e, streamRound, seqRound)
		}
		if !reflect.DeepEqual(patternKeys(streamRound.Patterns), patternKeys(seqRound.Patterns)) {
			t.Fatalf("epoch %d patterns diverge", e)
		}
	}
	if psStream.Len() != psSeq.Len() {
		t.Fatalf("final policies diverge: %d vs %d rules", psStream.Len(), psSeq.Len())
	}
	streamKeys := make(map[string]bool, psStream.Len())
	for _, r := range psStream.Rules() {
		streamKeys[r.Key()] = true
	}
	for _, r := range psSeq.Rules() {
		if !streamKeys[r.Key()] {
			t.Fatalf("stream policy missing %s", r.Compact())
		}
	}
}
