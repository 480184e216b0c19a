package wire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func TestAckRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		id := randomID(rng)
		interval := rng.Uint64()
		buf := MarshalAck(interval, id)
		gotInterval, gotID, err := UnmarshalAck(buf, tp)
		if err != nil {
			t.Fatal(err)
		}
		if gotInterval != interval || !gotID.Equal(id) {
			t.Fatalf("round trip: got (%d, %v), want (%d, %v)", gotInterval, gotID, interval, id)
		}
	}
}

func TestAckRejectsDamage(t *testing.T) {
	id := randomID(rand.New(rand.NewSource(3)))
	good := MarshalAck(42, id)
	for i := 1; i < len(good); i++ {
		if _, _, err := UnmarshalAck(good[:i], tp); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
	if _, _, err := UnmarshalAck(append(append([]byte{}, good...), 0), tp); err == nil {
		t.Fatal("trailing byte decoded")
	}
	bad := append([]byte{}, good...)
	bad[0] = byte(TypeRekey)
	if _, _, err := UnmarshalAck(bad, tp); err == nil {
		t.Fatal("wrong tag decoded")
	}
}

// TestHostileLengths drives every decoder with frames whose declared
// element counts vastly exceed the bytes that follow. The guards must
// reject them up front — before any count-sized allocation — so a
// hostile peer cannot OOM a node with a few bytes of header.
func TestHostileLengths(t *testing.T) {
	// Rekey: 14-byte frame claiming 2^31 encryptions (~26 GiB if the
	// decoder believed it).
	rekey := []byte{byte(TypeRekey), 0}                 // tag, forward level
	rekey = binary.BigEndian.AppendUint64(rekey, 1)     // interval
	rekey = binary.BigEndian.AppendUint32(rekey, 1<<31) // count
	if _, _, err := UnmarshalRekey(rekey); !errors.Is(err, ErrTruncated) {
		t.Fatalf("rekey with 2^31 declared encryptions: got %v, want ErrTruncated", err)
	}

	// Query reply: max u16 records in a 3-byte body.
	reply := []byte{byte(TypeQueryReply)}
	reply = binary.BigEndian.AppendUint16(reply, 1<<16-1)
	reply = append(reply, 1, 2, 3)
	if _, err := UnmarshalQueryReply(reply, tp); !errors.Is(err, ErrTruncated) {
		t.Fatalf("reply with 65535 declared records: got %v, want ErrTruncated", err)
	}

	// Ciphertext length lying about the remaining buffer.
	enc := []byte{byte(TypeRekey), 0}           // tag, forward level
	enc = binary.BigEndian.AppendUint64(enc, 1) // interval
	enc = binary.BigEndian.AppendUint32(enc, 1) // one encryption
	enc = append(enc, 0, 0)                     // empty target and key prefixes
	enc = binary.BigEndian.AppendUint64(enc, 1) // key version
	enc = binary.BigEndian.AppendUint16(enc, 1<<16-1)
	enc = append(enc, 0xab) // 1 byte where 65535 were declared
	if _, _, err := UnmarshalRekey(enc); !errors.Is(err, ErrTruncated) {
		t.Fatalf("encryption with lying ctLen: got %v, want ErrTruncated", err)
	}
}
