package netfed

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ProtocolVersion is the wire protocol revision; hello/helloAck carry
// it and both ends refuse a mismatch. Version 2 added the batch codec's
// zone-offset flag.
const ProtocolVersion = 2

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
