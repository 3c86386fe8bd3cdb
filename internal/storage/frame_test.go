package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 100000)}
	for _, p := range payloads {
		b := AppendFrame(nil, p)
		got, n, err := DecodeFrame(b, len(p))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(b) || n != frameHeader+len(p) || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: n %d/%d", n, len(b))
		}
	}
}

func TestFrameDecodeTruncatedAndCorrupt(t *testing.T) {
	const max = 1 << 10
	b := AppendFrame(nil, []byte("payload bytes"))
	for i := 0; i < len(b); i++ {
		if _, _, err := DecodeFrame(b[:i], max); err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated at %d: err = %v, want ErrUnexpectedEOF", i, err)
		}
	}
	for i := 0; i < len(b); i++ {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xFF
		if _, _, err := DecodeFrame(mut, max); err == nil {
			t.Fatalf("flip at %d: corrupt frame decoded cleanly", i)
		}
	}
	// A length word above the bound is rejected before the payload is
	// read, so a hostile length never waits for or buffers its bytes.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if _, _, err := DecodeFrame(huge, max); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("huge length: err = %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := DecodeFrame(b, len(b)-frameHeader-1); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("payload one byte over the bound: err = %v, want ErrFrameTooLarge", err)
	}
}

// fragReader hands out at most frag bytes per Read to exercise the
// FrameReader's refill and compaction paths.
type fragReader struct {
	b    []byte
	frag int
}

func (f *fragReader) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, io.EOF
	}
	n := min(f.frag, len(f.b), len(p))
	copy(p, f.b[:n])
	f.b = f.b[n:]
	return n, nil
}

func TestFrameReaderFragmented(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; i < 40; i++ {
		p := bytes.Repeat([]byte{byte(i)}, i*137)
		want = append(want, p)
		stream = AppendFrame(stream, p)
	}
	for _, frag := range []int{1, 3, 64, 1 << 16} {
		fr := NewFrameReader(&fragReader{b: stream, frag: frag}, 1<<20)
		for i := range want {
			payload, err := fr.Next()
			if err != nil {
				t.Fatalf("frag %d frame %d: %v", frag, i, err)
			}
			if !bytes.Equal(payload, want[i]) {
				t.Fatalf("frag %d frame %d: payload mismatch", frag, i)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("frag %d: end err = %v, want EOF", frag, err)
		}
	}
	// A stream torn inside a frame is ErrUnexpectedEOF, not EOF.
	fr := NewFrameReader(&fragReader{b: stream[:len(stream)-3], frag: 7}, 1<<20)
	var err error
	for err == nil {
		_, err = fr.Next()
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("torn stream: err = %v, want ErrUnexpectedEOF", err)
	}
}

// goldenSegment is a WAL segment in the on-disk layout, spelled out
// byte by byte: the 16-byte header (magic "PWAL", format version 1,
// two zero bytes, first LSN 7), then a frame holding "ab" and a frame
// holding "audit record" — each [u32 length][u32 CRC32-C][payload],
// little-endian.
var goldenSegment = []byte{
	'P', 'W', 'A', 'L', 0x01, 0x00, 0x00, 0x00,
	0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,

	0x02, 0x00, 0x00, 0x00, 0x36, 0x29, 0xa2, 0xe2,
	'a', 'b',

	0x0c, 0x00, 0x00, 0x00, 0x6f, 0x66, 0x65, 0xce,
	'a', 'u', 'd', 'i', 't', ' ', 'r', 'e', 'c', 'o', 'r', 'd',
}

// TestWALGoldenSegment pins the segment layout both ways: a segment
// built from literal bytes replays to the same LSNs and payloads, and
// a WAL appending the same records writes the same bytes.
func TestWALGoldenSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 7), goldenSegment, 0o644); err != nil {
		t.Fatal(err)
	}
	type rec struct {
		lsn     uint64
		payload string
	}
	var got []rec
	st, err := Replay(dir, nil, func(lsn uint64, p []byte) error {
		got = append(got, rec{lsn, string(p)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{{7, "ab"}, {8, "audit record"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if st.TornTail || st.Bytes != int64(len(goldenSegment)) {
		t.Fatalf("replay stats %+v", st)
	}
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := w.Append([]byte("next")); err != nil || lsn != 9 {
		t.Fatalf("append after the golden segment: lsn %d, err %v", lsn, err)
	}
	w.Close()

	// The write side: a log opened on the bare header appends the
	// same records as the golden bytes.
	dir = t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 7), goldenSegment[:walHeaderSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err = OpenWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if _, err := w.Append([]byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segmentPath(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, goldenSegment) {
		t.Fatalf("WAL wrote\n% x\nwant\n% x", raw, goldenSegment)
	}
}

// FuzzFrameDecode pins the frame layer's hostile-input contract: no
// panic, no over-read, and every successful decode is re-encodable to
// a frame that decodes to the same payload.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, []byte("seed")))
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{7}, 300)))
	f.Add(AppendFrame(AppendFrame(nil, []byte{1}), []byte("two frames")))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	corrupt := AppendFrame(nil, []byte("payload"))
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	const max = 1 << 16
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, n, err := DecodeFrame(b, max)
		if err != nil {
			return
		}
		if n != frameHeader+len(payload) || n > len(b) || len(payload) > max {
			t.Fatalf("consumed %d of %d bytes for a %d-byte payload", n, len(b), len(payload))
		}
		re := AppendFrame(nil, payload)
		if !bytes.Equal(re, b[:n]) {
			t.Fatal("re-encoded frame differs from the decoded bytes")
		}
		// The reader path agrees with the slice path.
		fr := NewFrameReader(bytes.NewReader(b[:n]), max)
		rpayload, rerr := fr.Next()
		if rerr != nil || !bytes.Equal(rpayload, payload) {
			t.Fatalf("FrameReader disagrees with DecodeFrame: %v", rerr)
		}
		if _, rerr := fr.Next(); rerr != io.EOF {
			t.Fatalf("trailing read err = %v, want EOF", rerr)
		}
	})
}
