package netfed

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzEntryCodec pins the batch codec: arbitrary payloads never panic
// or over-read, and any payload that decodes re-encodes to the
// canonical form — whose decode is identical and whose re-encode is
// byte-identical (the codec's fixed point).
func FuzzEntryCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(NewEncoder().AppendBatch(nil, 1, genEntries(1, 5)))
	f.Add(NewEncoder().AppendBatch(nil, 900, genEntries(2, 64)))
	f.Add(NewEncoder().AppendBatch(nil, 0, nil))
	f.Add([]byte{0x01, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		dec := NewDecoder()
		base, entries, err := dec.DecodeBatch(b)
		if err != nil {
			return
		}
		canonical := NewEncoder().AppendBatch(nil, base, entries)
		base2, entries2, err := NewDecoder().DecodeBatch(canonical)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		if base2 != base || !reflect.DeepEqual(entries2, entries) {
			t.Fatal("canonical decode differs from original decode")
		}
		again := NewEncoder().AppendBatch(nil, base2, entries2)
		if !bytes.Equal(again, canonical) {
			t.Fatal("re-encode of canonical form is not byte-identical")
		}
	})
}
