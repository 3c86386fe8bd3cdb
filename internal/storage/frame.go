package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// The CRC frame is the one byte-stream framing in the module: WAL
// segments store records in it and the federation wire carries
// messages in it. A frame is
//
//	[u32 payload length][u32 CRC32-C of payload][payload]
//
// with both words little-endian.

// frameHeader is the fixed frame overhead: the length and CRC words.
const frameHeader = 8

// Frame decode errors. Decoders return errors, never panic, on torn
// or hostile input; FuzzFrameDecode pins that contract.
var (
	ErrFrameTooLarge = errors.New("storage: frame exceeds the size bound")
	ErrFrameCorrupt  = errors.New("storage: frame CRC mismatch")
)

// AppendFrame appends payload to dst as one frame and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// DecodeFrame decodes one frame from the front of b. It returns the
// payload (aliasing b) and the number of bytes consumed. err is
// io.ErrUnexpectedEOF when b holds only a frame prefix (read more and
// retry), ErrFrameTooLarge when the length word exceeds max — checked
// before any payload is read, so a hostile length cannot balloon
// memory — and ErrFrameCorrupt on a CRC mismatch.
func DecodeFrame(b []byte, max int) (payload []byte, n int, err error) {
	if len(b) < frameHeader {
		return nil, 0, io.ErrUnexpectedEOF
	}
	plen := uint64(binary.LittleEndian.Uint32(b[0:4]))
	if plen > uint64(max) {
		return nil, 0, ErrFrameTooLarge
	}
	n = frameHeader + int(plen)
	if len(b) < n {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload = b[frameHeader:n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, ErrFrameCorrupt
	}
	return payload, n, nil
}

// FrameReader decodes frames from an io.Reader through one internal
// buffer: payloads returned by Next alias the buffer and are valid
// only until the following Next call.
type FrameReader struct {
	r   io.Reader
	max int
	buf []byte
	pos int // consumed prefix of buf
	end int // filled prefix of buf
}

// NewFrameReader wraps r, rejecting frames whose payload exceeds max
// bytes. The buffer grows on demand and is reused across frames.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	return &FrameReader{r: r, max: max, buf: make([]byte, 64<<10)}
}

// Next reads and verifies the next frame. On clean end-of-stream
// (between frames) it returns io.EOF; a stream torn inside a frame
// returns io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() ([]byte, error) {
	for {
		payload, n, err := DecodeFrame(fr.buf[fr.pos:fr.end], fr.max)
		if err == nil {
			fr.pos += n
			return payload, nil
		}
		if err != io.ErrUnexpectedEOF {
			return nil, err
		}
		if err := fr.fill(); err != nil {
			return nil, err
		}
	}
}

// fill reads more bytes, compacting or growing the buffer as needed.
func (fr *FrameReader) fill() error {
	if fr.pos > 0 {
		// Compact: move the unconsumed tail to the front so the buffer
		// is reused instead of regrown.
		copy(fr.buf, fr.buf[fr.pos:fr.end])
		fr.end -= fr.pos
		fr.pos = 0
	}
	if fr.end == len(fr.buf) {
		grown := make([]byte, 2*len(fr.buf))
		copy(grown, fr.buf[:fr.end])
		fr.buf = grown
	}
	n, err := fr.r.Read(fr.buf[fr.end:])
	fr.end += n
	if n > 0 || err == nil {
		return nil
	}
	if err == io.EOF && fr.end > fr.pos {
		return io.ErrUnexpectedEOF
	}
	return err
}
