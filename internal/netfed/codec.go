package netfed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
)

// Binary batch codec for audit entries. The JSON sink encoder spends
// most of its per-entry budget re-emitting the same field bytes (an
// audit stream repeats users, categories, purposes and roles heavily);
// the wire codec replaces that with a per-batch string dictionary —
// the first occurrence of a string travels as a length-prefixed
// literal and defines the next dictionary id, every repeat is one
// uvarint — plus zigzag-delta timestamps and a packed op/status flag
// byte. A timestamp's zone offset travels only when it is non-zero, so
// UTC entries pay nothing for it. Sequence numbers never travel per
// entry: a batch is the contiguous range [BaseSeq, BaseSeq+len(Entries)).
//
// Decoding is strict: every read is bounds-checked, counts and string
// lengths are validated against the remaining payload, and a batch
// either decodes completely or fails with an error — never a panic,
// never an over-read (FuzzEntryCodec pins this).

// MaxBatchEntries bounds the declared entry count of one batch; a
// hostile count cannot force a large allocation because it is checked
// against both this cap and the bytes actually remaining.
const MaxBatchEntries = 1 << 17

// Batch codec errors.
var (
	ErrBatchCorrupt = errors.New("netfed: corrupt entry batch")
	errBatchSize    = errors.New("netfed: batch entry count out of range")
)

// entry flag bits.
const (
	flagAllow     = 1 << 0 // Op == audit.Allow
	flagRegular   = 1 << 1 // Status == audit.Regular
	flagHasSite   = 1 << 2
	flagHasReason = 1 << 3
	flagHasZone   = 1 << 4 // a varint zone offset in seconds follows the flags
)

// Encoder carries the per-batch dictionary state so repeated encodes
// reuse one map allocation. Not safe for concurrent use; each
// streamer connection owns one.
type Encoder struct {
	dict map[string]uint64
}

// NewEncoder returns an Encoder ready for AppendBatch.
func NewEncoder() *Encoder {
	return &Encoder{dict: make(map[string]uint64, 256)}
}

// appendString emits one dictionary-coded string: id+1 for a repeat,
// 0 followed by the length-prefixed literal for a first occurrence
// (which takes the next id).
func (enc *Encoder) appendString(dst []byte, s string) []byte {
	if id, ok := enc.dict[s]; ok {
		return binary.AppendUvarint(dst, id+1)
	}
	enc.dict[s] = uint64(len(enc.dict))
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBatch appends the encoded batch to dst and returns the
// extended slice. baseSeq is the sequence number of entries[0]; the
// batch covers the contiguous range [baseSeq, baseSeq+len(entries)).
func (enc *Encoder) AppendBatch(dst []byte, baseSeq uint64, entries []audit.Entry) []byte {
	clear(enc.dict)
	dst = binary.AppendUvarint(dst, baseSeq)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	prev := int64(0)
	for i := range entries {
		e := &entries[i]
		ns := e.Time.UnixNano()
		dst = binary.AppendVarint(dst, ns-prev)
		prev = ns
		var flags byte
		if e.Op == audit.Allow {
			flags |= flagAllow
		}
		if e.Status == audit.Regular {
			flags |= flagRegular
		}
		if e.Site != "" {
			flags |= flagHasSite
		}
		if e.Reason != "" {
			flags |= flagHasReason
		}
		_, off := e.Time.Zone()
		if off != 0 {
			flags |= flagHasZone
		}
		dst = append(dst, flags)
		if off != 0 {
			dst = binary.AppendVarint(dst, int64(off))
		}
		dst = enc.appendString(dst, e.User)
		dst = enc.appendString(dst, e.Data)
		dst = enc.appendString(dst, e.Purpose)
		dst = enc.appendString(dst, e.Authorized)
		if flags&flagHasSite != 0 {
			dst = enc.appendString(dst, e.Site)
		}
		if flags&flagHasReason != 0 {
			dst = enc.appendString(dst, e.Reason)
		}
	}
	return dst
}

// Decoder carries the per-batch dictionary so repeated decodes reuse
// one slice allocation. Not safe for concurrent use; each consolidator
// connection owns one.
type Decoder struct {
	dict []string
}

// NewDecoder returns a Decoder ready for DecodeBatch.
func NewDecoder() *Decoder { return &Decoder{dict: make([]string, 0, 256)} }

// readString decodes one dictionary-coded string from b[pos:],
// returning the string and the new position.
func (dec *Decoder) readString(b []byte, pos int) (string, int, error) {
	id, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return "", 0, ErrBatchCorrupt
	}
	pos += n
	if id != 0 {
		if id > uint64(len(dec.dict)) {
			return "", 0, fmt.Errorf("%w: dictionary id %d of %d", ErrBatchCorrupt, id, len(dec.dict))
		}
		return dec.dict[id-1], pos, nil
	}
	ln, n := binary.Uvarint(b[pos:])
	if n <= 0 || ln > uint64(len(b)-pos-n) {
		return "", 0, ErrBatchCorrupt
	}
	pos += n
	// One string allocation per distinct value per batch; repeats
	// share it through the dictionary.
	s := string(b[pos : pos+int(ln)])
	dec.dict = append(dec.dict, s)
	return s, pos + int(ln), nil
}

// DecodeBatch decodes a batch produced by AppendBatch. Decoded times
// keep their instant and zone offset, in UTC or an unnamed fixed zone,
// as the durable store decodes them (monotonic clock readings and zone
// names do not travel). The payload must be consumed exactly:
// trailing bytes are an error, so a frame cannot smuggle data past the
// codec.
func (dec *Decoder) DecodeBatch(payload []byte) (baseSeq uint64, entries []audit.Entry, err error) {
	dec.dict = dec.dict[:0]
	pos := 0
	baseSeq, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, nil, ErrBatchCorrupt
	}
	pos += n
	count, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return 0, nil, ErrBatchCorrupt
	}
	pos += n
	if count > MaxBatchEntries {
		return 0, nil, errBatchSize
	}
	// Each entry needs at least a time varint, a flag byte and four
	// string refs: 6 bytes. A count beyond that is corrupt, and the
	// check bounds the allocation below by the payload size.
	if count > uint64(len(payload)-pos)/6 {
		return 0, nil, errBatchSize
	}
	entries = make([]audit.Entry, count)
	prev := int64(0)
	for i := range entries {
		e := &entries[i]
		d, n := binary.Varint(payload[pos:])
		if n <= 0 {
			return 0, nil, ErrBatchCorrupt
		}
		pos += n
		prev += d
		if pos >= len(payload) {
			return 0, nil, ErrBatchCorrupt
		}
		flags := payload[pos]
		pos++
		if flags&^(flagAllow|flagRegular|flagHasSite|flagHasReason|flagHasZone) != 0 {
			return 0, nil, fmt.Errorf("%w: flag byte %#x", ErrBatchCorrupt, flags)
		}
		e.Time = time.Unix(0, prev).UTC()
		if flags&flagHasZone != 0 {
			off, n := binary.Varint(payload[pos:])
			if n <= 0 || off == 0 || off < -audit.MaxZoneOffset || off > audit.MaxZoneOffset {
				return 0, nil, fmt.Errorf("%w: zone offset", ErrBatchCorrupt)
			}
			pos += n
			e.Time = e.Time.In(time.FixedZone("", int(off)))
		}
		if flags&flagAllow != 0 {
			e.Op = audit.Allow
		} else {
			e.Op = audit.Deny
		}
		if flags&flagRegular != 0 {
			e.Status = audit.Regular
		} else {
			e.Status = audit.Exception
		}
		if e.User, pos, err = dec.readString(payload, pos); err != nil {
			return 0, nil, err
		}
		if e.Data, pos, err = dec.readString(payload, pos); err != nil {
			return 0, nil, err
		}
		if e.Purpose, pos, err = dec.readString(payload, pos); err != nil {
			return 0, nil, err
		}
		if e.Authorized, pos, err = dec.readString(payload, pos); err != nil {
			return 0, nil, err
		}
		if flags&flagHasSite != 0 {
			if e.Site, pos, err = dec.readString(payload, pos); err != nil {
				return 0, nil, err
			}
		}
		if flags&flagHasReason != 0 {
			if e.Reason, pos, err = dec.readString(payload, pos); err != nil {
				return 0, nil, err
			}
		}
	}
	if pos != len(payload) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBatchCorrupt, len(payload)-pos)
	}
	return baseSeq, entries, nil
}
