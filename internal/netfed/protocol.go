// Package netfed is the networked Audit Management tier (paper §4.2):
// N hospital sites stream audit-log deltas over a binary wire protocol
// to a consolidator that folds them into a federated store and runs
// federation, refinement, and cross-site suspicion review continuously
// — the role DB2 Information Integrator plays in the paper's first
// instantiation, over a real network instead of an in-process merge.
//
// The wire format is built for the hot path: each message is one
// storage CRC frame ([u32 length][u32 CRC32-C][payload], the framing
// the WAL writes) whose payload leads with the message type byte, a
// dictionary-compressed binary codec for audit.Entry batches (no JSON
// anywhere on the data path), pipelined seq-ranged batches with
// windowed acks for backpressure, and resume-from-seq after reconnect.
// The in-process audit.Federation stays the differential oracle: a
// consolidator fed over the wire must reproduce Federation.Consolidate
// byte for byte.
package netfed

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Message types. A frame carries exactly one message: its payload is
// the type byte followed by the message body.
const (
	// MsgHello opens a session (client -> server): protocol version
	// and site name.
	MsgHello byte = 1
	// MsgHelloAck answers a hello (server -> client): protocol
	// version, resume sequence (highest contiguous sequence number the
	// server already holds for the site) and the ack window (maximum
	// unacknowledged batches the client may pipeline).
	MsgHelloAck byte = 2
	// MsgBatch carries one seq-ranged delta batch of audit entries
	// (client -> server), encoded by the batch codec in codec.go.
	MsgBatch byte = 3
	// MsgAck acknowledges folded batches (server -> client): the
	// highest contiguous sequence number folded into the store. Acks
	// are coalesced — one ack may cover several batches.
	MsgAck byte = 4
	// MsgError reports a protocol fault (either direction); the sender
	// closes the connection after it.
	MsgError byte = 5
)

// MaxFrame bounds one frame's payload (type byte + message body). The
// frame reader rejects a larger length word before buffering the
// payload, so a hostile length prefix cannot balloon memory.
const MaxFrame = 16 << 20

// ProtocolVersion is the wire protocol revision; hello/helloAck carry
// it and both ends refuse a mismatch. Version 2 added the batch codec's
// zone-offset flag; version 3 moved messages into the storage CRC
// frame.
const ProtocolVersion = 3

var errEmptyFrame = errors.New("netfed: frame carries no message type")

// nextMsg reads the next frame and splits its payload into the message
// type and the body, which aliases the reader's buffer until the next
// call.
func nextMsg(fr *storage.FrameReader) (typ byte, body []byte, err error) {
	p, err := fr.Next()
	if err != nil {
		return 0, nil, err
	}
	if len(p) == 0 {
		return 0, nil, errEmptyFrame
	}
	return p[0], p[1:], nil
}

// maxSiteName bounds the site identifier in a hello.
const maxSiteName = 1 << 10

var errBadHandshake = errors.New("netfed: malformed handshake message")

// hello is the client's session opener.
type hello struct {
	version uint64
	site    string
}

func appendHello(dst []byte, h hello) []byte {
	dst = binary.AppendUvarint(dst, h.version)
	dst = binary.AppendUvarint(dst, uint64(len(h.site)))
	return append(dst, h.site...)
}

func parseHello(payload []byte) (hello, error) {
	var h hello
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return h, errBadHandshake
	}
	payload = payload[n:]
	ln, n := binary.Uvarint(payload)
	if n <= 0 || ln > maxSiteName || ln != uint64(len(payload)-n) {
		return h, errBadHandshake
	}
	h.version = v
	h.site = string(payload[n:])
	return h, nil
}

// helloAck is the server's answer: where to resume and how many
// batches may be in flight.
type helloAck struct {
	version uint64
	resume  uint64 // highest contiguous seq the server holds for the site
	window  uint64 // max unacked batches the client may pipeline
}

func appendHelloAck(dst []byte, a helloAck) []byte {
	dst = binary.AppendUvarint(dst, a.version)
	dst = binary.AppendUvarint(dst, a.resume)
	return binary.AppendUvarint(dst, a.window)
}

func parseHelloAck(payload []byte) (helloAck, error) {
	var a helloAck
	var n int
	pos := 0
	for _, field := range []*uint64{&a.version, &a.resume, &a.window} {
		*field, n = binary.Uvarint(payload[pos:])
		if n <= 0 {
			return helloAck{}, errBadHandshake
		}
		pos += n
	}
	if pos != len(payload) {
		return helloAck{}, errBadHandshake
	}
	return a, nil
}

func appendAck(dst []byte, seq uint64) []byte {
	return binary.AppendUvarint(dst, seq)
}

func parseAck(payload []byte) (uint64, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, errBadHandshake
	}
	return seq, nil
}

// protocolError is a peer-reported MsgError, surfaced locally as an
// error value.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return fmt.Sprintf("netfed: peer error: %s", e.msg) }

// parseErrorMsg renders a MsgError payload (UTF-8 text) as an error.
func parseErrorMsg(payload []byte) error {
	const maxErr = 1 << 12
	if len(payload) > maxErr {
		payload = payload[:maxErr]
	}
	return &protocolError{msg: string(payload)}
}
