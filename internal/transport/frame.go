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

// appendEnvelope appends payload, wrapped with the sender prefix, to
// dst. The sender ID must already satisfy len <= MaxPeerID (enforced
// by Config.fill).
func appendEnvelope(dst []byte, from PeerID, payload []byte) []byte {
	dst = append(dst, byte(len(from)))
	dst = append(dst, from...)
	return append(dst, payload...)
}

// decodeEnvelope splits a received envelope into the sender's ID bytes
// and the payload. Both alias buf: the receive path looks the sender up
// by those bytes and builds a PeerID only for a sender it has neither
// registered nor just seen (endpoint.dispatch).
func decodeEnvelope(buf []byte) (sender, payload []byte, err error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("transport: envelope truncated (empty)")
	}
	n := int(buf[0])
	if n == 0 {
		return nil, nil, fmt.Errorf("transport: envelope has empty sender ID")
	}
	if len(buf) < 1+n {
		return nil, nil, fmt.Errorf("transport: envelope sender ID declares %d bytes, %d remain", n, len(buf)-1)
	}
	return buf[1 : 1+n], buf[1+n:], nil
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
