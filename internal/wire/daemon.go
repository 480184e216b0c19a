// Daemon frames: the one message the socket rekey daemon adds on top
// of the simulator's wire set. TypeAck closes the delivery loop: a
// member confirms it installed the interval's group key. The ladder's
// rungs need no frame of their own: a unicast and a resync are both
// TypeRekey frames at the terminal forward level, the resync carrying
// the member's path wrapped under its individual key
// (keytree.Tree.Resync), so no key ever crosses the wire in the clear.
package wire

import (
	"encoding/binary"
	"fmt"

	"tmesh/internal/ident"
)

// TypeAck frames a member's delivery acknowledgement for one rekey
// interval, continuing the MsgType space.
const TypeAck MsgType = 5

// MarshalAck frames an interval acknowledgement: tag, interval, the
// acknowledging member's ID.
func MarshalAck(interval uint64, id ident.ID) []byte {
	dst := make([]byte, 0, 1+8+1+id.Len())
	dst = append(dst, byte(TypeAck))
	dst = binary.BigEndian.AppendUint64(dst, interval)
	return AppendID(dst, id)
}

// UnmarshalAck decodes an acknowledgement.
func UnmarshalAck(buf []byte, params ident.Params) (uint64, ident.ID, error) {
	r := &reader{buf: buf}
	tag, err := r.u8("type")
	if err != nil {
		return 0, ident.ID{}, err
	}
	if MsgType(tag) != TypeAck {
		return 0, ident.ID{}, fmt.Errorf("wire: expected ack tag, got %d", tag)
	}
	interval, err := r.u64("ack.interval")
	if err != nil {
		return 0, ident.ID{}, err
	}
	id, err := readID(r, params, "ack.id")
	if err != nil {
		return 0, ident.ID{}, err
	}
	if r.rest() != 0 {
		return 0, ident.ID{}, fmt.Errorf("wire: %d trailing bytes after ack", r.rest())
	}
	return interval, id, nil
}
