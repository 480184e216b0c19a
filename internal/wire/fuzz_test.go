package wire

import (
	"fmt"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
)

// The decoders must never panic or over-allocate on arbitrary bytes —
// they parse data received from other group members.
//
// Each harness seeds itself with valid, structurally diverse frames, then
// truncated and bit-flipped variants of the last one, then short frames
// declaring astronomical element counts, so a short -fuzztime still
// reaches deep into the decoder instead of rediscovering the framing.

func FuzzUnmarshalRekey(f *testing.F) {
	msg := &keytree.Message{
		Interval: 7,
		Encryptions: []keycrypt.Encryption{
			{ID: ident.EmptyPrefix, KeyID: ident.EmptyPrefix, KeyVersion: 1, Ciphertext: []byte("ct")},
		},
	}
	if seed, err := MarshalRekey(msg, 2); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{byte(TypeRekey)})
	f.Add([]byte{byte(TypeRekey), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	var last []byte
	for _, msg := range seedRekeyMessages() {
		for _, level := range []int{0, 2, tp.Digits} {
			b, err := MarshalRekey(msg, level)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
			last = b
		}
	}
	f.Add(last[:len(last)/2])
	f.Add(flip(last, len(last)-1))
	// A 14-byte frame claiming 2^31 encryptions (~2 GiB of declared
	// payload) must die on the length guard, not in the allocator.
	f.Add(hugeCount(TypeRekey, 9, 4, 1<<31))
	f.Add(hugeCount(TypeRekey, 9, 4, 1<<32-1))
	f.Add(eightDigitRekey()) // more digits than an ID holds
	// Every input is decoded twice: fresh, and into a message that
	// already holds the twelve encryptions of the largest seed. The
	// decoders must agree, and the reused message must keep nothing of
	// its earlier frame.
	stale, err := MarshalRekey(seedRekeyMessages()[3], 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, level, err := UnmarshalRekey(data)
		var into keytree.Message
		if _, err := UnmarshalRekeyInto(&into, stale); err != nil {
			t.Fatal(err)
		}
		intoLevel, intoErr := UnmarshalRekeyInto(&into, data)
		if (err == nil) != (intoErr == nil) || err != nil && err.Error() != intoErr.Error() {
			t.Fatalf("decoders disagree: UnmarshalRekey %v, UnmarshalRekeyInto %v", err, intoErr)
		}
		if i := staleAt(&into); i >= 0 {
			t.Fatalf("slot %d of the reused message still holds an encryption", i)
		}
		if err != nil {
			if into.Interval != 0 || len(into.Encryptions) != 0 {
				t.Fatal("a failed decode left the reused message non-empty")
			}
			return
		}
		if intoLevel != level || !sameRekey(got, &into) {
			t.Fatal("UnmarshalRekeyInto decoded a different message than UnmarshalRekey")
		}
		// A successful decode must round-trip to the same bytes.
		back, err := MarshalRekey(got, level)
		if err != nil {
			t.Fatalf("re-marshal of decoded message failed: %v", err)
		}
		if string(back) != string(data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, back)
		}
	})
}

// seedRekeyMessages covers the encryption-shape axes: empty batch, single
// entry, multi-entry with prefixes of several depths and key versions,
// and a larger message with realistic ciphertext sizes.
func seedRekeyMessages() []*keytree.Message {
	enc := func(target, key ident.Prefix, ver uint64, ct string) keycrypt.Encryption {
		return keycrypt.Encryption{ID: target, KeyID: key, KeyVersion: ver, Ciphertext: []byte(ct)}
	}
	big := &keytree.Message{Interval: 1 << 40}
	for i := 0; i < 12; i++ {
		u := fuzzID(i * 7919)
		big.Encryptions = append(big.Encryptions,
			enc(u.Prefix(i%tp.Digits), u.Prefix((i+1)%tp.Digits+1), uint64(i),
				fmt.Sprintf("ciphertext-%02d-0123456789abcdef", i)))
	}
	return []*keytree.Message{
		{Interval: 0},
		{Interval: 7, Encryptions: []keycrypt.Encryption{
			enc(ident.EmptyPrefix, ident.EmptyPrefix, 1, "ct"),
		}},
		{Interval: 42, Encryptions: []keycrypt.Encryption{
			enc(fuzzID(5).Prefix(2), fuzzID(5).Prefix(3), 9, "group-key-bytes"),
			enc(fuzzID(900).Prefix(4), fuzzID(900).Prefix(5), 10, ""),
		}},
		big,
	}
}

func FuzzUnmarshalQueryReply(f *testing.F) {
	if seed, err := MarshalQueryReply([]overlay.Record{{Host: 3, ID: fuzzID(12345)}}); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{byte(TypeQueryReply), 0xff, 0xff})
	var last []byte
	for _, recs := range [][]overlay.Record{
		{},
		{{Host: 1, ID: fuzzID(0)}},
		{{Host: 3, ID: fuzzID(12345)}, {Host: 65535, ID: fuzzID(1 << 20)}},
		{{Host: 7, ID: fuzzID(99)}, {Host: 8, ID: fuzzID(100)}, {Host: 9, ID: fuzzID(101)}},
	} {
		b, err := MarshalQueryReply(recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		last = b
	}
	f.Add(last[:len(last)-3])
	f.Add(flip(last, 1))
	f.Add(hugeCount(TypeQueryReply, 0, 2, 1<<16-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := UnmarshalQueryReply(data, tp)
		if err != nil {
			return
		}
		back, err := MarshalQueryReply(recs)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if string(back) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

func FuzzUnmarshalQuery(f *testing.F) {
	f.Add(MarshalQuery(Query{Target: ident.EmptyPrefix}))
	var last []byte
	for _, p := range []ident.Prefix{
		ident.EmptyPrefix,
		fuzzID(12345).Prefix(1),
		fuzzID(12345).Prefix(3),
		fuzzID(1 << 30).Prefix(tp.Digits),
	} {
		last = MarshalQuery(Query{Target: p})
		f.Add(last)
	}
	f.Add(last[:1])
	f.Add(flip(last, len(last)-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := UnmarshalQuery(data)
		if err != nil {
			return
		}
		if string(MarshalQuery(q)) != string(data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}

func FuzzUnmarshalAck(f *testing.F) {
	f.Add(MarshalAck(7, fuzzID(12345)))
	f.Add([]byte{byte(TypeAck), 0xff, 0xff, 0xff})
	var last []byte
	for i, interval := range []uint64{0, 7, 1 << 40} {
		last = MarshalAck(interval, fuzzID(i*101))
		f.Add(last)
	}
	f.Add(last[:len(last)/2])
	f.Add(flip(last, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		interval, id, err := UnmarshalAck(data, tp)
		if err != nil {
			return
		}
		if string(MarshalAck(interval, id)) != string(data) {
			t.Fatal("decode/encode not canonical")
		}
	})
}

func fuzzID(n int) ident.ID {
	id, err := ident.FromInt(tp, n)
	if err != nil {
		panic(err)
	}
	return id
}

// hugeCount builds a frame of tag, lead zero bytes (whatever precedes
// the count in that frame type), and a big-endian count field of
// countWidth bytes declaring count elements with no payload behind it.
func hugeCount(tag MsgType, lead, countWidth int, count uint64) []byte {
	b := make([]byte, 1+lead, 1+lead+countWidth)
	b[0] = byte(tag)
	for i := countWidth - 1; i >= 0; i-- {
		b = append(b, byte(count>>(8*i)))
	}
	return b
}

// flip returns a copy of b with the top bit of byte i toggled.
func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x80
	return out
}
