package transport

import (
	"encoding/binary"
	"fmt"
)

// Every frame a transport carries is wrapped in a tiny envelope naming
// the sender, so the receive path can attribute traffic to a PeerID
// without trusting source addresses (UDP locators change across NATs
// and redials; the identity travels in-band):
//
//	[1-byte sender-ID length][sender ID][payload...]
//
// The TCP stream prepends a 4-byte big-endian length of the whole
// envelope to delimit frames; UDP and loopback use message boundaries.
// All decode paths are hardened the same way internal/wire is: every
// declared length is checked against the bytes actually present before
// any allocation sized by it.

// encodeEnvelope wraps payload with the sender prefix. The sender ID
// must already satisfy len <= MaxPeerID (enforced by Config.fill).
func encodeEnvelope(from PeerID, payload []byte) []byte {
	buf := make([]byte, 0, 1+len(from)+len(payload))
	buf = append(buf, byte(len(from)))
	buf = append(buf, from...)
	buf = append(buf, payload...)
	return buf
}

// decodeEnvelope splits a received envelope into sender and payload.
// The returned payload aliases buf; callers that retain it across
// reads must copy (the TCP pump hands each frame a fresh buffer).
func decodeEnvelope(buf []byte) (PeerID, []byte, error) {
	if len(buf) < 1 {
		return "", nil, fmt.Errorf("transport: envelope truncated (empty)")
	}
	n := int(buf[0])
	if n == 0 {
		return "", nil, fmt.Errorf("transport: envelope has empty sender ID")
	}
	if len(buf) < 1+n {
		return "", nil, fmt.Errorf("transport: envelope sender ID declares %d bytes, %d remain", n, len(buf)-1)
	}
	return PeerID(buf[1 : 1+n]), buf[1+n:], nil
}

// putStreamHeader writes the 4-byte big-endian length prefix for a TCP
// stream frame of the given envelope size.
func putStreamHeader(dst []byte, envelopeLen int) {
	binary.BigEndian.PutUint32(dst, uint32(envelopeLen))
}

// streamFrameLen validates a received 4-byte stream header against the
// frame cap before any buffer is allocated. MaxFrame bounds the
// payload; the envelope may add up to MaxPeerID+1 bytes on top.
func streamFrameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, fmt.Errorf("transport: zero-length stream frame")
	}
	if n > MaxFrame+MaxPeerID+1 {
		return 0, fmt.Errorf("transport: stream frame declares %d bytes, cap %d", n, MaxFrame+MaxPeerID+1)
	}
	return int(n), nil
}
