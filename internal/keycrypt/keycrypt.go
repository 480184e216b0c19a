// Package keycrypt provides the cryptographic substrate of the rekeying
// system: symmetric keys, key wrapping (an "encryption" in the paper's
// terminology — {k'}_k, a new key k' encrypted under a key k), and payload
// encryption with the group key.
//
// The paper treats encryptions as opaque fixed-size units and measures
// rekey cost in number of encryptions; this package makes them real
// (AES-256-GCM) so that examples and tests can verify end-to-end that each
// user can decrypt exactly the keys it is entitled to. Wrapper and
// Unwrapper are the batch forms a worker reuses across one interval's
// wraps and unwraps; their outputs equal the one-shot functions', and
// each allocates at most the one AES-GCM state its KEK needs.
package keycrypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"

	"tmesh/internal/ident"
)

// KeySize is the size in bytes of every symmetric key in the system.
const KeySize = 32

const nonceSize = 12

// Key is a symmetric key. Keys are value types; the zero value is invalid
// (no derived key is all zero, and keytree reads one as no key).
type Key struct {
	bytes [KeySize]byte
}

// ErrDecrypt is returned when an encryption cannot be opened with the
// provided key.
var ErrDecrypt = errors.New("keycrypt: decryption failed")

// DeriveKey deterministically derives a key from a seed and a label using
// HMAC-SHA256. Simulations use it so that key material is reproducible
// under a fixed seed while remaining unique per key-tree node and version.
func DeriveKey(seed []byte, label string) Key {
	return NewDeriver(seed).Derive([]byte(label))
}

// Deriver is DeriveKey for many labels under one seed: the HMAC is keyed
// by the seed once and Reset between keys, and the sum reuses one
// buffer, so a key costs no allocation. Output is byte-identical to
// DeriveKey. A Deriver is not safe for concurrent use; give each worker
// its own.
type Deriver struct {
	mac hash.Hash
	sum []byte
}

// NewDeriver returns a Deriver for the seed.
func NewDeriver(seed []byte) *Deriver {
	return &Deriver{mac: hmac.New(sha256.New, seed)}
}

// Derive is DeriveKey(seed, string(label)).
func (d *Deriver) Derive(label []byte) Key {
	d.mac.Reset()
	d.mac.Write(label)
	d.sum = d.mac.Sum(d.sum[:0])
	var k Key
	copy(k.bytes[:], d.sum)
	return k
}

// IsZero reports whether the key is the (invalid) zero value.
func (k Key) IsZero() bool { return k.bytes == [KeySize]byte{} }

// Equal reports whether two keys hold identical material. It is constant
// time.
func (k Key) Equal(other Key) bool {
	return hmac.Equal(k.bytes[:], other.bytes[:])
}

// Bytes returns a copy of the raw key material.
func (k Key) Bytes() []byte {
	out := make([]byte, KeySize)
	copy(out, k.bytes[:])
	return out
}

// KeyFromBytes builds a key from exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) != KeySize {
		return Key{}, fmt.Errorf("keycrypt: key must be %d bytes, got %d", KeySize, len(b))
	}
	var k Key
	copy(k.bytes[:], b)
	return k, nil
}

// Encryption is the paper's {k'}_k: the key of key-tree node KeyID (at
// version KeyVersion) wrapped under the key whose node ID is ID. Per the
// paper's identification scheme, "the ID of an encryption is defined to be
// the ID of the encrypting key", and that ID is what the splitting scheme
// tests against user IDs (Lemma 3, Theorem 2).
type Encryption struct {
	// ID identifies the encrypting key: the key-tree node whose holders
	// can open this encryption.
	ID ident.Prefix
	// KeyID identifies the wrapped (new) key's node.
	KeyID ident.Prefix
	// KeyVersion is the version of the wrapped key, incremented at each
	// rekey of that node.
	KeyVersion uint64
	// Ciphertext is nonce || AES-256-GCM(newKey).
	Ciphertext []byte
}

// NeededBy implements Lemma 3: a user needs the key wrapped in e if and
// only if the ID of the encryption is a prefix of the user's ID.
func (e Encryption) NeededBy(u ident.ID) bool {
	return u.HasPrefix(e.ID)
}

// RelevantTo implements the forwarding test of Theorem 2 for the subtree
// rooted at prefix w: the encryption is needed by at least one user in that
// subtree iff e.ID is a prefix of w or w is a prefix of e.ID.
func (e Encryption) RelevantTo(w ident.Prefix) bool {
	return e.ID.Related(w)
}

// WrapSeeded encrypts newKey under kek, producing an Encryption
// identified per the paper's scheme. The nonce is deterministic: derived
// via HMAC-SHA256 from nonceSeed, the encryption's AAD, and a
// caller-supplied context value. Identical inputs produce byte-identical
// ciphertexts, which lets seeded simulations reproduce rekey messages
// exactly regardless of how wrapping work is scheduled across workers.
//
// Nonce-safety contract: the caller must ensure that for a fixed kek
// material the pair (AAD, context) never repeats. The key tree satisfies
// it by passing its rekey interval as the context: the AAD binds
// (kekID, newKeyID, version), a node's version is bumped on every rekey,
// and the interval disambiguates wraps of distinct nodes that could
// otherwise collide across tree reconfigurations.
func WrapSeeded(kek Key, kekID ident.Prefix, newKey Key, newKeyID ident.Prefix, version uint64, nonceSeed []byte, context uint64) (Encryption, error) {
	mac := hmac.New(sha256.New, nonceSeed)
	mac.Write([]byte("nonce/"))
	aad := appendWrapAAD(nil, kekID, newKeyID, version)
	mac.Write(aad)
	var ctx [8]byte
	binary.BigEndian.PutUint64(ctx[:], context)
	mac.Write(ctx[:])
	nonce := mac.Sum(nil)[:nonceSize]

	aead, err := newAEAD(kek)
	if err != nil {
		return Encryption{}, err
	}
	ct := aead.Seal(append([]byte(nil), nonce...), nonce, newKey.bytes[:], aad)
	return Encryption{
		ID:         kekID,
		KeyID:      newKeyID,
		KeyVersion: version,
		Ciphertext: ct,
	}, nil
}

// Wrapper batches WrapSeeded calls, amortising their fixed per-call
// allocations: the nonce-derivation HMAC state (keyed once by the nonce
// seed and Reset between wraps), the AAD scratch, the HMAC sum buffer,
// and a chunked arena the ciphertexts are carved from. Output is
// byte-identical to WrapSeeded for the same inputs. A Wrapper is not
// safe for concurrent use; give each worker its own.
type Wrapper struct {
	mac   hash.Hash
	aad   []byte
	sum   []byte
	arena []byte
	// The context word and new key, copied here: a stack value passed
	// to the HMAC's or the AEAD's interface call escapes once per wrap.
	ctx [8]byte
	key [KeySize]byte
}

// wrappedLen is the exact ciphertext size of one wrapped key:
// nonce || AES-256-GCM(key) || tag.
const wrappedLen = nonceSize + KeySize + 16

// wrapperChunk is the arena granularity: 256 ciphertexts per bulk
// allocation.
const wrapperChunk = 256 * wrappedLen

var nonceLabel = []byte("nonce/")

// NewWrapper returns a Wrapper deriving nonces from the given seed,
// equivalent to calling WrapSeeded with that nonceSeed.
func NewWrapper(nonceSeed []byte) *Wrapper {
	return &Wrapper{mac: hmac.New(sha256.New, nonceSeed)}
}

// WrapSeeded is the batch form of the package-level WrapSeeded; see its
// documentation for the nonce-safety contract.
func (w *Wrapper) WrapSeeded(kek Key, kekID ident.Prefix, newKey Key, newKeyID ident.Prefix, version uint64, context uint64) (Encryption, error) {
	w.aad = appendWrapAAD(w.aad[:0], kekID, newKeyID, version)
	w.mac.Reset()
	w.mac.Write(nonceLabel)
	w.mac.Write(w.aad)
	binary.BigEndian.PutUint64(w.ctx[:], context)
	w.mac.Write(w.ctx[:])
	w.sum = w.mac.Sum(w.sum[:0])
	nonce := w.sum[:nonceSize]

	aead, err := newAEAD(kek)
	if err != nil {
		return Encryption{}, err
	}
	if cap(w.arena)-len(w.arena) < wrappedLen {
		w.arena = make([]byte, 0, wrapperChunk)
	}
	off := len(w.arena)
	// Three-index slice: capacity capped at wrappedLen so Seal fills the
	// arena region in place without ever growing into later wraps.
	w.key = newKey.bytes
	ct := aead.Seal(append(w.arena[off:off:off+wrappedLen], nonce...), nonce, w.key[:], w.aad)
	w.arena = w.arena[:off+len(ct)]
	return Encryption{
		ID:         kekID,
		KeyID:      newKeyID,
		KeyVersion: version,
		Ciphertext: ct,
	}, nil
}

// Unwrap opens the encryption with the key-encrypting key and returns the
// wrapped key. It fails with ErrDecrypt if kek is not the key identified by
// e.ID or the ciphertext was tampered with.
func Unwrap(kek Key, e Encryption) (Key, error) {
	return (*Unwrapper)(nil).Unwrap(kek, e)
}

// Unwrapper is Wrapper's twin on the apply side: it batches one worker's
// Unwrap calls, reusing the AAD scratch and the plaintext buffer, and
// keeps the AES-GCM state built from each KEK it has seen, keyed by that
// KEK's material. Every call still runs its own Open, tag check and
// decryption; only the cipher setup a KEK always yields is shared, so a
// wrong or stale KEK misses and fails exactly as the one-shot Unwrap.
// UnwrapOnce, for a KEK no other member holds, keeps no cipher state. A
// nil *Unwrapper is the one-shot path. Not safe for concurrent use; give
// each worker its own, for one batch, or keep the zero value, which
// reuses the scratch but keeps no cipher state, as long as you like.
type Unwrapper struct {
	aeads map[Key]cipher.AEAD
	aad   []byte
	pt    []byte
}

// NewUnwrapper returns an empty Unwrapper.
func NewUnwrapper() *Unwrapper {
	return &Unwrapper{aeads: make(map[Key]cipher.AEAD)}
}

// Unwrap is the batch form of the package-level Unwrap; its results and
// errors are the same.
func (u *Unwrapper) Unwrap(kek Key, e Encryption) (Key, error) { return u.unwrap(kek, e, true) }

// UnwrapOnce is Unwrap for a KEK no other member holds: the AES-GCM
// state is built, used once and dropped; only the scratch is reused.
func (u *Unwrapper) UnwrapOnce(kek Key, e Encryption) (Key, error) { return u.unwrap(kek, e, false) }

// unwrap is every unwrap's Open and tag check; keep caches kek's
// AES-GCM state in u.
func (u *Unwrapper) unwrap(kek Key, e Encryption, keep bool) (Key, error) {
	if u == nil {
		u = &Unwrapper{}
	}
	aead := u.aeads[kek]
	if aead == nil {
		var err error
		if aead, err = newAEAD(kek); err != nil {
			return Key{}, err
		}
		if keep && u.aeads != nil {
			u.aeads[kek] = aead
		}
	}
	if len(e.Ciphertext) < nonceSize {
		return Key{}, fmt.Errorf("%w: ciphertext too short", ErrDecrypt)
	}
	u.aad = appendWrapAAD(u.aad[:0], e.ID, e.KeyID, e.KeyVersion)
	pt, err := aead.Open(u.pt[:0], e.Ciphertext[:nonceSize], e.Ciphertext[nonceSize:], u.aad)
	if err != nil {
		return Key{}, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	u.pt = pt
	return KeyFromBytes(pt)
}

// Seal encrypts an arbitrary payload (e.g. application data multicast with
// the group key). The result is nonce || ciphertext+tag.
func Seal(k Key, plaintext []byte) ([]byte, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, nonceSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("keycrypt: nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, plaintext, nil), nil
}

// Open decrypts a payload produced by Seal.
func Open(k Key, sealed []byte) ([]byte, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	if len(sealed) < nonceSize {
		return nil, fmt.Errorf("%w: payload too short", ErrDecrypt)
	}
	pt, err := aead.Open(nil, sealed[:nonceSize], sealed[nonceSize:], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	return pt, nil
}

func newAEAD(k Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(k.bytes[:])
	if err != nil {
		return nil, fmt.Errorf("keycrypt: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("keycrypt: gcm: %w", err)
	}
	return aead, nil
}

// appendWrapAAD binds an encryption to its advertised IDs and version so
// that a relabelled encryption fails authentication.
func appendWrapAAD(dst []byte, kekID, newKeyID ident.Prefix, version uint64) []byte {
	dst = slices.Grow(dst, kekID.Len()+newKeyID.Len()+10)
	dst = append(dst, byte(kekID.Len()))
	dst = kekID.AppendDigits(dst)
	dst = append(dst, byte(newKeyID.Len()))
	dst = newKeyID.AppendDigits(dst)
	return binary.BigEndian.AppendUint64(dst, version)
}
