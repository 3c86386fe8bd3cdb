package netfed

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/audit"
)

// genEntries builds n deterministic entries with repeated field values
// (the dictionary's case) plus occasional sites and reasons.
func genEntries(seed int64, n int) []audit.Entry {
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(1700000000, 0).UTC()
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	data := []string{"referral", "psychiatry", "lab results", "billing"}
	purposes := []string{"treatment", "research", "billing"}
	roles := []string{"nurse", "physician", "clerk"}
	out := make([]audit.Entry, n)
	for i := range out {
		st, op := audit.Regular, audit.Allow
		switch rng.Intn(4) {
		case 0:
			st = audit.Exception
		case 1:
			op = audit.Deny
		}
		e := audit.Entry{
			Time:       base.Add(time.Duration(rng.Intn(600)) * time.Minute),
			Op:         op,
			User:       users[rng.Intn(len(users))],
			Data:       data[rng.Intn(len(data))],
			Purpose:    purposes[rng.Intn(len(purposes))],
			Authorized: roles[rng.Intn(len(roles))],
			Status:     st,
		}
		if rng.Intn(3) == 0 {
			e.Site = "site-a"
		}
		if st == audit.Exception && rng.Intn(2) == 0 {
			e.Reason = "emergency access"
		}
		out[i] = e
	}
	return out
}

func TestBatchCodecRoundTrip(t *testing.T) {
	entries := genEntries(3, 1000)
	enc := NewEncoder()
	payload := enc.AppendBatch(nil, 17, entries)
	dec := NewDecoder()
	base, got, err := dec.DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if base != 17 {
		t.Fatalf("base = %d, want 17", base)
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("decoded entries differ from input")
	}
	// Re-encoding the decode is byte-identical: the codec has one
	// canonical form.
	again := NewEncoder().AppendBatch(nil, base, got)
	if !bytes.Equal(again, payload) {
		t.Fatal("re-encode is not byte-identical")
	}
	// Encoder state fully resets between batches.
	second := enc.AppendBatch(nil, 17, entries)
	if !bytes.Equal(second, payload) {
		t.Fatal("encoder reuse changed the encoding")
	}
}

func TestBatchCodecEmptyAndHostile(t *testing.T) {
	enc := NewEncoder()
	payload := enc.AppendBatch(nil, 1, nil)
	if base, got, err := NewDecoder().DecodeBatch(payload); err != nil || base != 1 || len(got) != 0 {
		t.Fatalf("empty batch: base %d, %d entries, err %v", base, len(got), err)
	}
	hostile := [][]byte{
		nil,
		{0x01},                         // base only
		{0x01, 0xFF, 0xFF, 0xFF, 0x7F}, // absurd count
		append(enc.AppendBatch(nil, 1, genEntries(1, 3)), 0x00), // trailing byte
	}
	// A count that passes MaxBatchEntries but exceeds the remaining
	// bytes must be rejected before allocation.
	big := make([]byte, 0, 8)
	big = append(big, 0x01)       // base
	big = append(big, 0x80, 0x02) // count = 256, but no bytes follow
	hostile = append(hostile, big)
	for i, b := range hostile {
		if _, _, err := NewDecoder().DecodeBatch(b); err == nil {
			t.Fatalf("hostile %d decoded cleanly", i)
		}
	}
	// Truncations of a valid batch never decode cleanly to the full
	// count and never panic.
	valid := enc.AppendBatch(nil, 5, genEntries(9, 50))
	for i := 0; i < len(valid); i++ {
		NewDecoder().DecodeBatch(valid[:i])
	}
}

func TestHandshakeMessages(t *testing.T) {
	h := hello{version: ProtocolVersion, site: "general-hospital"}
	got, err := parseHello(appendHello(nil, h))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	a := helloAck{version: 1, resume: 1 << 40, window: 32}
	gotAck, err := parseHelloAck(appendHelloAck(nil, a))
	if err != nil || gotAck != a {
		t.Fatalf("helloAck round trip: %+v, %v", gotAck, err)
	}
	seq, err := parseAck(appendAck(nil, 987654321))
	if err != nil || seq != 987654321 {
		t.Fatalf("ack round trip: %d, %v", seq, err)
	}
	for _, b := range [][]byte{nil, {0xFF}, append(appendHello(nil, h), 0x01)} {
		if _, err := parseHello(b); err == nil {
			t.Fatal("malformed hello parsed cleanly")
		}
	}
	if _, err := parseHello(appendHello(nil, hello{version: 1, site: string(make([]byte, maxSiteName+1))})); err == nil {
		t.Fatal("oversized site name parsed cleanly")
	}
}
