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
// ciphertext size is stable.
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
		if len(e.Ciphertext) != nonceSize+KeySize+16 { // nonce || key || GCM tag
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

// TestUnwrapperMatchesUnwrap: the batch Unwrapper, nil or live, returns
// what the one-shot Unwrap returns over random wraps; a cached KEK's
// cipher state never opens a tampered, relabelled or foreign
// encryption; and an unwrap under a cached KEK allocates nothing.
func TestUnwrapperMatchesUnwrap(t *testing.T) {
	u := NewUnwrapper()
	var nilU *Unwrapper
	keks := make([]Key, 5) // few KEKs, so most live unwraps hit the cache
	for i := range keks {
		keks[i] = DeriveKey([]byte{byte(i)}, "kek")
	}
	prop := func(i uint8, seed []byte, version uint64) bool {
		kek := keks[int(i)%len(keks)]
		nk := DeriveKey(seed, "new")
		kekID := mustPrefix(t, ident.Digit(i%4), ident.Digit(i%3))
		keyID := mustPrefix(t, ident.Digit(i%4))
		e, err := WrapSeeded(kek, kekID, nk, keyID, version, seed, version)
		if err != nil {
			return false
		}
		want, werr := Unwrap(kek, e)
		got, gerr := u.Unwrap(kek, e)
		once, oerr := nilU.Unwrap(kek, e)
		return werr == nil && gerr == nil && oerr == nil && got.Equal(want) && once.Equal(want) && want.Equal(nk)
	}
	for i := range keks { // every KEK cached before the negative cases
		if !prop(uint8(i), []byte("warm"), 1) {
			t.Fatalf("KEK %d: Unwrapper differs from Unwrap", i)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	kek := keks[0]
	e, err := WrapSeeded(kek, mustPrefix(t, 1, 2), DeriveKey(nil, "new"), mustPrefix(t, 1), 3, []byte("n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	tampered := e
	tampered.Ciphertext = append([]byte(nil), e.Ciphertext...)
	tampered.Ciphertext[nonceSize] ^= 1
	relabel := func(f func(*Encryption)) Encryption { x := e; f(&x); return x }
	for name, bad := range map[string]Encryption{
		"tampered":    tampered,
		"relabel ID":  relabel(func(x *Encryption) { x.ID = mustPrefix(t, 7, 7) }),
		"relabel Key": relabel(func(x *Encryption) { x.KeyID = mustPrefix(t, 7) }),
		"relabel ver": relabel(func(x *Encryption) { x.KeyVersion++ }),
	} {
		if _, err := u.Unwrap(kek, bad); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s: err = %v, want ErrDecrypt", name, err)
		}
	}
	for _, wrong := range keks[1:] {
		if _, err := u.Unwrap(wrong, e); !errors.Is(err, ErrDecrypt) {
			t.Errorf("wrong cached KEK: err = %v, want ErrDecrypt", err)
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := u.Unwrap(kek, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Unwrapper.Unwrap under a cached KEK allocates %.2f times, want 0", allocs)
	}
}

// TestBatchFormsAllocateOneAEAD pins the heap cost of a batch wrap and
// of an individual-key unwrap to the one AES-GCM state their KEK
// needs, counted from an AEAD built here: the HMAC input, the new key,
// the AAD, the plaintext and the ciphertext all land in Wrapper- or
// Unwrapper-owned memory.
func TestBatchFormsAllocateOneAEAD(t *testing.T) {
	kek, nk := DeriveKey([]byte("k"), "kek"), DeriveKey([]byte("k"), "new")
	kekID, keyID := mustPrefix(t, 1, 2), mustPrefix(t, 1)
	aead := testing.AllocsPerRun(100, func() {
		if _, err := newAEAD(kek); err != nil {
			t.Fatal(err)
		}
	})
	if aead == 0 {
		t.Fatal("building an AEAD allocates nothing; the pins below would be vacuous")
	}
	w := NewWrapper([]byte("seed"))
	var e Encryption
	context := uint64(0)
	wraps := testing.AllocsPerRun(100, func() {
		context++
		var err error
		if e, err = w.WrapSeeded(kek, kekID, nk, keyID, 1, context); err != nil {
			t.Fatal(err)
		}
	})
	if wraps != aead {
		t.Errorf("Wrapper.WrapSeeded allocates %.0f times per wrap, want %.0f (one AEAD)", wraps, aead)
	}

	u := NewUnwrapper()
	unwraps := testing.AllocsPerRun(100, func() {
		if got, err := u.UnwrapOnce(kek, e); err != nil || !got.Equal(nk) {
			t.Fatalf("UnwrapOnce = %v, %v; want the wrapped key", got, err)
		}
	})
	if unwraps != aead {
		t.Errorf("Unwrapper.UnwrapOnce allocates %.0f times per unwrap, want %.0f (one AEAD)", unwraps, aead)
	}
	if _, err := u.UnwrapOnce(DeriveKey(nil, "wrong"), e); !errors.Is(err, ErrDecrypt) {
		t.Errorf("UnwrapOnce under a wrong KEK: err = %v, want ErrDecrypt", err)
	}
	if len(u.aeads) != 0 {
		t.Errorf("UnwrapOnce kept %d AES-GCM states, want none", len(u.aeads))
	}
}

// TestDeriverMatchesDeriveKey: a Deriver reused across labels gives
// DeriveKey's key for each, and derives without allocating.
func TestDeriverMatchesDeriveKey(t *testing.T) {
	seed := []byte("tree-seed")
	d := NewDeriver(seed)
	for _, label := range []string{"u:\x00\x01/v1", "k:/v4294967297", "", "k:\xff\x80/v2", "u:\x00\x01/v1"} {
		if got, want := d.Derive([]byte(label)), DeriveKey(seed, label); !got.Equal(want) {
			t.Errorf("Derive(%q) differs from DeriveKey", label)
		}
	}
	label := []byte("k:\x01\x02/v7")
	var k Key
	if allocs := testing.AllocsPerRun(100, func() { k = d.Derive(label) }); allocs != 0 {
		t.Errorf("Deriver.Derive allocates %.0f times per key, want 0", allocs)
	}
	if k.IsZero() {
		t.Error("derived the zero key")
	}
}
