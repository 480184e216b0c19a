package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 5, Base: 256}

func randomID(rng *rand.Rand) ident.ID {
	digits := make([]ident.Digit, tp.Digits)
	for i := range digits {
		digits[i] = rng.Intn(tp.Base)
	}
	return ident.MustNew(tp, digits)
}

func randomPrefix(rng *rand.Rand) ident.Prefix {
	return randomID(rng).Prefix(rng.Intn(tp.Digits + 1))
}

func randomEncryption(rng *rand.Rand) keycrypt.Encryption {
	e := keycrypt.Encryption{
		ID:         randomPrefix(rng),
		KeyID:      randomPrefix(rng),
		KeyVersion: rng.Uint64(),
	}
	if rng.Intn(4) > 0 {
		e.Ciphertext = make([]byte, 12+keycrypt.KeySize+16)
		rng.Read(e.Ciphertext)
	}
	return e
}

func TestRekeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		msg := &keytree.Message{Interval: rng.Uint64()}
		for i := 0; i < rng.Intn(40); i++ {
			msg.Encryptions = append(msg.Encryptions, randomEncryption(rng))
		}
		level := rng.Intn(tp.Digits + 1)
		buf, err := MarshalRekey(msg, level)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != cap(buf) {
			t.Fatalf("MarshalRekey sized its buffer %d for %d bytes", cap(buf), len(buf))
		}
		got, gotLevel, err := UnmarshalRekey(buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotLevel != level || got.Interval != msg.Interval {
			t.Fatalf("header mismatch: level %d/%d interval %d/%d", gotLevel, level, got.Interval, msg.Interval)
		}
		if len(got.Encryptions) != len(msg.Encryptions) {
			t.Fatalf("count %d, want %d", len(got.Encryptions), len(msg.Encryptions))
		}
		for i := range msg.Encryptions {
			a, b := msg.Encryptions[i], got.Encryptions[i]
			if a.ID != b.ID || a.KeyID != b.KeyID || a.KeyVersion != b.KeyVersion {
				t.Fatalf("encryption %d header mismatch", i)
			}
			if string(a.Ciphertext) != string(b.Ciphertext) {
				t.Fatalf("encryption %d ciphertext mismatch", i)
			}
		}
	}
}

func TestRekeyValidation(t *testing.T) {
	if _, err := MarshalRekey(nil, 0); err == nil {
		t.Error("nil message should fail")
	}
	if _, err := MarshalRekey(&keytree.Message{}, -1); err == nil {
		t.Error("negative level should fail")
	}
	if _, err := MarshalRekey(&keytree.Message{}, 256); err == nil {
		t.Error("oversized level should fail")
	}
}

// Every truncation of a valid buffer must fail cleanly (no panics, no
// silent success).
func TestRekeyTruncationsFail(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	msg := &keytree.Message{Interval: 7}
	for i := 0; i < 5; i++ {
		msg.Encryptions = append(msg.Encryptions, randomEncryption(rng))
	}
	buf, err := MarshalRekey(msg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := UnmarshalRekey(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Trailing garbage is rejected too.
	if _, _, err := UnmarshalRekey(append(append([]byte(nil), buf...), 0xff)); err == nil {
		t.Error("trailing bytes should fail")
	}
	// Wrong tag.
	bad := append([]byte(nil), buf...)
	bad[0] = byte(TypeData)
	if _, _, err := UnmarshalRekey(bad); err == nil {
		t.Error("wrong tag should fail")
	}
	// Absurd count must not allocate or succeed.
	short := []byte{byte(TypeRekey), 0, 0, 0, 0, 0, 0, 0, 0, 7, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := UnmarshalRekey(short); !errors.Is(err, ErrTruncated) {
		t.Errorf("bogus count: err = %v, want ErrTruncated", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prop := func(host uint32, joinSecs uint32) bool {
		rec := overlay.Record{
			Host:     vnet.HostID(host),
			ID:       randomID(rng),
			JoinTime: time.Duration(joinSecs) * time.Second,
		}
		got, err := UnmarshalRecord(MarshalRecord(rec), tp)
		return err == nil && got.Host == rec.Host && got.ID.Equal(rec.ID) && got.JoinTime == rec.JoinTime
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Wrong ID length for the params fails.
	rec := overlay.Record{Host: 1, ID: randomID(rng)}
	buf := MarshalRecord(rec)
	if _, err := UnmarshalRecord(buf, ident.Params{Digits: 3, Base: 256}); err == nil {
		t.Error("ID length mismatch should fail")
	}
	if _, err := UnmarshalRecord(buf[:5], tp); err == nil {
		t.Error("truncated record should fail")
	}
	if _, err := UnmarshalRecord(append(buf, 1), tp); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		q := Query{Target: randomPrefix(rng)}
		got, err := UnmarshalQuery(MarshalQuery(q))
		if err != nil {
			t.Fatal(err)
		}
		if got.Target != q.Target {
			t.Fatalf("target %v, want %v", got.Target, q.Target)
		}
	}
	if _, err := UnmarshalQuery([]byte{byte(TypeRekey), 0}); err == nil {
		t.Error("wrong tag should fail")
	}
	if _, err := UnmarshalQuery(nil); err == nil {
		t.Error("empty buffer should fail")
	}
}

func TestQueryReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]overlay.Record, 7)
	for i := range recs {
		recs[i] = overlay.Record{
			Host:     vnet.HostID(rng.Intn(10000)),
			ID:       randomID(rng),
			JoinTime: time.Duration(rng.Intn(1e6)) * time.Millisecond,
		}
	}
	buf, err := MarshalQueryReply(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalQueryReply(buf, tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Host != recs[i].Host || !got[i].ID.Equal(recs[i].ID) || got[i].JoinTime != recs[i].JoinTime {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Empty reply is valid.
	empty, err := MarshalQueryReply(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := UnmarshalQueryReply(empty, tp); err != nil || len(got) != 0 {
		t.Errorf("empty reply decode = %v, %v", got, err)
	}
	// Truncations fail.
	for cut := 1; cut < len(buf); cut += 7 {
		if _, err := UnmarshalQueryReply(buf[:cut], tp); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

// TestWireSizeRealism documents the byte grounding of the paper's
// "encryptions" unit: a real wrapped key costs ~80 bytes, so a
// 1000-encryption rekey burst is ~80 KB before splitting.
func TestWireSizeRealism(t *testing.T) {
	kek := keycrypt.DeriveKey([]byte("s"), "kek")
	nk := keycrypt.DeriveKey([]byte("s"), "nk")
	pfx, err := ident.PrefixOf(tp, []ident.Digit{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := keycrypt.WrapSeeded(kek, pfx, nk, ident.EmptyPrefix, 1, []byte("nonce"), 1)
	if err != nil {
		t.Fatal(err)
	}
	size := EncryptionSize(e)
	if size < 60 || size > 120 {
		t.Errorf("wrapped-key wire size %d outside the expected ~80-byte band", size)
	}
	msg := &keytree.Message{Encryptions: make([]keycrypt.Encryption, 0, 1000)}
	for i := 0; i < 1000; i++ {
		msg.Encryptions = append(msg.Encryptions, e)
	}
	buf, err := MarshalRekey(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total := len(buf); total < 60_000 || total > 120_000 {
		t.Errorf("1000-encryption message is %d bytes, expected tens of KB", total)
	}
}

// TestRekeyEncodingPinned: the rekey frames of fixed messages, derived
// keys and wraps included, are the bytes they have always been.
func TestRekeyEncodingPinned(t *testing.T) {
	const want = "3065d62261c4488c1465eb8d1fe4fd36a82aa3bad9b2f950e692cf15923e950b"
	if got := rekeyEncodingDigest(t); got != want {
		t.Errorf("rekey encodings hash to %s, want %s", got, want)
	}
}

// rekeyEncodingDigest hashes the encodings of the seed messages and of a
// real key tree's two rekey messages (derived keys, AAD-bound wraps) at
// three forwarding levels.
func rekeyEncodingDigest(t *testing.T) string {
	t.Helper()
	tree, err := keytree.New(tp, []byte("wire-pin"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var members []ident.ID
	for i := 0; i < 24; i++ {
		members = append(members, fuzzID(i*2654435761))
	}
	msgs := seedRekeyMessages()
	for _, b := range [][2][]ident.ID{{members, nil}, {nil, members[3:9]}} {
		msg, err := tree.Batch(b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, msg)
	}
	h := sha256.New()
	for _, msg := range msgs {
		for _, level := range []int{0, 2, tp.Digits} {
			b, err := MarshalRekey(msg, level)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// eightDigitRekey is a rekey frame whose one encryption ID has eight
// digits, one more than an ID holds: a valid frame with a seven-digit ID,
// lengthened by one digit.
func eightDigitRekey() []byte {
	seven, err := ident.ParsePrefix("[1,2,3,4,5,6,7]")
	if err != nil {
		panic(err)
	}
	b, err := MarshalRekey(&keytree.Message{Interval: 3, Encryptions: []keycrypt.Encryption{
		{ID: seven, KeyID: seven.Parent(), KeyVersion: 1, Ciphertext: []byte("ct")},
	}}, 1)
	if err != nil {
		panic(err)
	}
	return bytes.Replace(b, []byte{7, 1, 2, 3, 4, 5, 6, 7}, []byte{8, 1, 2, 3, 4, 5, 6, 7, 8}, 1)
}

// TestReadPrefixRefusesEightDigits: a prefix longer than an ID can hold
// is a decode error, never a panic.
func TestReadPrefixRefusesEightDigits(t *testing.T) {
	if msg, _, err := UnmarshalRekey(eightDigitRekey()); err == nil {
		t.Errorf("UnmarshalRekey of an 8-digit ID = %v, want an error", msg.Encryptions[0].ID)
	}
}

var sinkBytes []byte

// TestAppendPrefixAllocatesNothing: encoding a prefix or an ID into a
// buffer with room allocates nothing.
func TestAppendPrefixAllocatesNothing(t *testing.T) {
	id := fuzzID(123456789)
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		sinkBytes = AppendID(AppendPrefix(buf[:0], id.Prefix(3)), id)
	}); allocs != 0 {
		t.Errorf("AppendPrefix/AppendID allocate %.0f times, want 0", allocs)
	}
}
