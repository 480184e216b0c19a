package keycrypt

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"tmesh/internal/ident"
)

var idp = ident.Params{Digits: 4, Base: 8}

func TestDeriveKeyDeterministic(t *testing.T) {
	seed := []byte("simulation-seed-1")
	a := DeriveKey(seed, "node:[0,1]/v3")
	b := DeriveKey(seed, "node:[0,1]/v3")
	c := DeriveKey(seed, "node:[0,1]/v4")
	d := DeriveKey([]byte("other"), "node:[0,1]/v3")
	if !a.Equal(b) {
		t.Error("same seed+label must derive the same key")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different label or seed must derive a different key")
	}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprints of distinct keys should differ")
	}
	if a.IsZero() || !(Key{}).IsZero() {
		t.Error("IsZero must hold for the zero key only")
	}
}

func TestKeyFromBytesRoundTrip(t *testing.T) {
	k := DeriveKey([]byte("s"), "l")
	back, err := KeyFromBytes(k.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(k) {
		t.Error("Bytes/KeyFromBytes should round-trip")
	}
	if _, err := KeyFromBytes(make([]byte, 16)); err == nil {
		t.Error("short key material should be rejected")
	}
	// Bytes returns a copy.
	raw := k.Bytes()
	raw[0] ^= 0xff
	if !bytes.Equal(k.Bytes(), back.Bytes()) {
		t.Error("mutating the returned slice must not affect the key")
	}
}

func TestWrapUnwrap(t *testing.T) {
	kek := DeriveKey([]byte("s"), "kek")
	newKey := DeriveKey([]byte("s"), "group-v2")
	kekID, _ := ident.PrefixOf(idp, []ident.Digit{0, 1})
	rootID := ident.EmptyPrefix

	e, err := WrapSeeded(kek, kekID, newKey, rootID, 2, []byte("nonce"), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unwrap(kek, e)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(newKey) {
		t.Error("unwrapped key mismatch")
	}

	// Wrong key fails.
	wrong := DeriveKey([]byte("s"), "other")
	if _, err := Unwrap(wrong, e); !errors.Is(err, ErrDecrypt) {
		t.Errorf("Unwrap with wrong key: err = %v, want ErrDecrypt", err)
	}
	// Tampered ciphertext fails.
	bad := e
	bad.Ciphertext = append([]byte(nil), e.Ciphertext...)
	bad.Ciphertext[len(bad.Ciphertext)-1] ^= 1
	if _, err := Unwrap(kek, bad); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered: err = %v, want ErrDecrypt", err)
	}
	// Relabelled IDs fail authentication (AAD binding).
	relabel := e
	relabel.KeyID = kekID
	if _, err := Unwrap(kek, relabel); !errors.Is(err, ErrDecrypt) {
		t.Errorf("relabelled: err = %v, want ErrDecrypt", err)
	}
	relabelV := e
	relabelV.KeyVersion = 3
	if _, err := Unwrap(kek, relabelV); !errors.Is(err, ErrDecrypt) {
		t.Errorf("version relabel: err = %v, want ErrDecrypt", err)
	}
	// Truncated ciphertext fails cleanly.
	short := e
	short.Ciphertext = short.Ciphertext[:4]
	if _, err := Unwrap(kek, short); !errors.Is(err, ErrDecrypt) {
		t.Errorf("short ciphertext: err = %v, want ErrDecrypt", err)
	}
}

func TestSealOpen(t *testing.T) {
	k := DeriveKey([]byte("s"), "group")
	msg := []byte("pay-per-view frame 1234")
	sealed, err := Seal(k, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(k, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("Open = %q, want %q", got, msg)
	}
	if _, err := Open(DeriveKey([]byte("s"), "evicted"), sealed); !errors.Is(err, ErrDecrypt) {
		t.Error("an evicted user's key must not open group traffic")
	}
	if _, err := Open(k, sealed[:3]); !errors.Is(err, ErrDecrypt) {
		t.Error("truncated payload should fail")
	}
}

func TestEncryptionNeededByLemma3(t *testing.T) {
	u := ident.MustNew(idp, []ident.Digit{1, 2, 3, 4})
	tests := []struct {
		id   []ident.Digit
		want bool
	}{
		{nil, true},                  // group key: everyone needs it
		{[]ident.Digit{1}, true},     // ancestor k-node
		{[]ident.Digit{1, 2}, true},  // ancestor k-node
		{[]ident.Digit{1, 3}, false}, // sibling subtree
		{[]ident.Digit{2}, false},
		{[]ident.Digit{1, 2, 3, 4}, true},  // u's own individual key
		{[]ident.Digit{1, 2, 3, 5}, false}, // another user's individual key
	}
	for _, tt := range tests {
		pfx, err := ident.PrefixOf(idp, tt.id)
		if err != nil {
			t.Fatal(err)
		}
		e := Encryption{ID: pfx}
		if got := e.NeededBy(u); got != tt.want {
			t.Errorf("NeededBy(%v, e.ID=%v) = %v, want %v", u, pfx, got, tt.want)
		}
	}
}

func TestEncryptionRelevantToTheorem2(t *testing.T) {
	e := Encryption{ID: mustPrefix(t, 1, 2)}
	if !e.RelevantTo(mustPrefix(t, 1)) {
		t.Error("w=[1] is a prefix of e.ID: relevant")
	}
	if !e.RelevantTo(mustPrefix(t, 1, 2, 3)) {
		t.Error("e.ID is a prefix of w=[1,2,3]: relevant")
	}
	if e.RelevantTo(mustPrefix(t, 1, 3)) {
		t.Error("sibling subtree must be irrelevant")
	}
	if !e.RelevantTo(ident.EmptyPrefix) {
		t.Error("the root subtree contains everyone")
	}
}

func mustPrefix(t *testing.T, digits ...ident.Digit) ident.Prefix {
	t.Helper()
	p, err := ident.PrefixOf(idp, digits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Property: wrap/unwrap round-trips for arbitrary key material and the
// wire size is stable.
func TestWrapRoundTripProperty(t *testing.T) {
	kekID := mustPrefix(t, 3)
	keyID := ident.EmptyPrefix
	prop := func(seedA, seedB []byte, version uint64) bool {
		kek := DeriveKey(append([]byte{1}, seedA...), "kek")
		nk := DeriveKey(append([]byte{2}, seedB...), "new")
		e, err := WrapSeeded(kek, kekID, nk, keyID, version, seedA, version)
		if err != nil {
			return false
		}
		if e.WireSize() != len(e.Ciphertext)+kekID.Len()+keyID.Len()+8 {
			return false
		}
		got, err := Unwrap(kek, e)
		return err == nil && got.Equal(nk)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWrapperMatchesWrapSeeded: the scratch-reusing Wrapper must be
// byte-identical to the one-shot WrapSeeded across a long sequence of
// wraps — the parallel key-tree regen depends on this to keep rekey
// messages independent of worker count.
func TestWrapperMatchesWrapSeeded(t *testing.T) {
	seed := []byte("wrapper-identity-seed")
	w := NewWrapper(seed)
	for i := 0; i < 300; i++ {
		kek := DeriveKey([]byte{byte(i)}, "kek")
		nk := DeriveKey([]byte{byte(i)}, "new")
		kekID := mustPrefix(t, ident.Digit(i%4), ident.Digit(i%3))
		keyID := mustPrefix(t, ident.Digit(i%4))
		version := uint64(i * 7)
		context := uint64(i % 5)
		want, err := WrapSeeded(kek, kekID, nk, keyID, version, seed, context)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.WrapSeeded(kek, kekID, nk, keyID, version, context)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wrap %d: Wrapper output differs from one-shot WrapSeeded", i)
		}
		back, err := Unwrap(kek, got)
		if err != nil || !back.Equal(nk) {
			t.Fatalf("wrap %d: round trip failed: %v", i, err)
		}
	}
}
