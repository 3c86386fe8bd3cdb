package audit

import (
	"bytes"
	"testing"
	"time"
)

// FuzzDecodeEntry feeds arbitrary bytes through both audit codecs and
// pins their contract: no panic on any input, and every accepted log
// survives an encode/decode round trip entry for entry (same
// canonical Key per position).
func FuzzDecodeEntry(f *testing.F) {
	jsonl := `{"time":"2007-04-02T09:00:00Z","op":1,"user":"mark","data":"referral","purpose":"registration","authorized":"nurse","status":0}` + "\n"
	csv := "time,op,user,data,purpose,authorized,status,site,reason\n" +
		"2007-04-02T09:00:00Z,1,mark,referral,registration,nurse,0,ward,\n"
	f.Add([]byte(jsonl))
	f.Add([]byte(csv))
	f.Add([]byte("{}\n"))
	f.Add([]byte("time,op,user\n"))
	f.Add([]byte(""))
	f.Add([]byte(`{"op":9}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := ReadJSONL(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteJSONL(&buf, entries); err != nil {
				t.Fatalf("encode of decoded JSONL failed: %v", err)
			}
			again, err := ReadJSONL(&buf)
			if err != nil {
				t.Fatalf("re-decode of encoded JSONL failed: %v", err)
			}
			requireSameEntries(t, entries, again)
		}
		if entries, err := ReadCSV(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := WriteCSV(&buf, entries); err != nil {
				t.Fatalf("encode of decoded CSV failed: %v", err)
			}
			again, err := ReadCSV(&buf)
			if err != nil {
				t.Fatalf("re-decode of encoded CSV failed: %v", err)
			}
			requireSameEntries(t, entries, again)
		}
	})
}

// FuzzDurableRecord pins the durable record codec — the WAL record and
// the checkpoint's only copy of an entry: no panic on any bytes, and
// every accepted record re-encodes to one that decodes to the same
// sequence number and entry, instant and zone offset included.
func FuzzDurableRecord(f *testing.F) {
	e := Entry{
		Time: time.Date(2007, 4, 2, 9, 0, 0, 0, time.FixedZone("", 5*3600+1800)),
		Op:   Allow, User: "mark", Data: "referral", Purpose: "registration",
		Authorized: "nurse", Status: Exception, Site: "ward", Reason: "emergency",
	}
	f.Add(appendStamped(nil, 1, &e))
	e.Time, e.Op, e.Status, e.Reason = e.Time.UTC(), Deny, Regular, ""
	f.Add(appendStamped(nil, 1<<40, &e))
	f.Add(append(appendStamped(nil, 2, &e), 0))
	f.Add([]byte{0x00, 0x0a})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		seq, e, err := decodeStamped(b)
		if err != nil {
			return
		}
		seq2, e2, err := decodeStamped(appendStamped(nil, seq, &e))
		if err != nil {
			t.Fatalf("re-decode of an accepted record failed: %v", err)
		}
		_, off := e.Time.Zone()
		_, off2 := e2.Time.Zone()
		if seq2 != seq || e2.Key() != e.Key() || e2.Site != e.Site || e2.Reason != e.Reason ||
			!e2.Time.Equal(e.Time) || off2 != off {
			t.Fatalf("round trip changed the record: seq %d -> %d, %q -> %q, offset %d -> %d",
				seq, seq2, e.Key(), e2.Key(), off, off2)
		}
	})
}

func requireSameEntries(t *testing.T, a, b []Entry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("round trip changed entry count: %d -> %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("entry %d changed identity: %q -> %q", i, a[i].Key(), b[i].Key())
		}
	}
}
