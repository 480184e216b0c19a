// Package keycrypt provides the cryptographic substrate of the rekeying
// system: symmetric keys, key wrapping (an "encryption" in the paper's
// terminology — {k'}_k, a new key k' encrypted under a key k), and payload
// encryption with the group key.
//
// The paper treats encryptions as opaque fixed-size units and measures
// rekey cost in number of encryptions; this package makes them real
// (AES-256-GCM) so that examples and tests can verify end-to-end that each
// user can decrypt exactly the keys it is entitled to.
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

	"tmesh/internal/ident"
)

// KeySize is the size in bytes of every symmetric key in the system.
const KeySize = 32

// EncryptionOverhead is the per-encryption wire overhead beyond the wrapped
// key itself: the GCM nonce and tag.
const EncryptionOverhead = nonceSize + 16

const nonceSize = 12

// Key is a symmetric key. Keys are value types; the zero value is invalid
// (all-zero keys are rejected by Validate).
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
	mac := hmac.New(sha256.New, seed)
	mac.Write([]byte(label))
	var k Key
	copy(k.bytes[:], mac.Sum(nil))
	return k
}

// IsZero reports whether the key is the (invalid) zero value.
func (k Key) IsZero() bool { return k.bytes == [KeySize]byte{} }

// Equal reports whether two keys hold identical material. It is constant
// time.
func (k Key) Equal(other Key) bool {
	return hmac.Equal(k.bytes[:], other.bytes[:])
}

// Fingerprint returns a short non-secret identifier of the key material,
// usable in logs and tests.
func (k Key) Fingerprint() uint64 {
	sum := sha256.Sum256(k.bytes[:])
	return binary.BigEndian.Uint64(sum[:8])
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

// WireSize returns the size in bytes this encryption occupies on the wire,
// counting ciphertext plus the two node IDs and the version.
func (e Encryption) WireSize() int {
	return len(e.Ciphertext) + e.ID.Len() + e.KeyID.Len() + 8
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
	mac.Write(wrapAAD(kekID, newKeyID, version))
	var ctx [8]byte
	binary.BigEndian.PutUint64(ctx[:], context)
	mac.Write(ctx[:])
	nonce := mac.Sum(nil)[:nonceSize]

	aead, err := newAEAD(kek)
	if err != nil {
		return Encryption{}, err
	}
	ct := aead.Seal(append([]byte(nil), nonce...), nonce, newKey.bytes[:], wrapAAD(kekID, newKeyID, version))
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
	var ctx [8]byte
	binary.BigEndian.PutUint64(ctx[:], context)
	w.mac.Write(ctx[:])
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
	ct := aead.Seal(append(w.arena[off:off:off+wrappedLen], nonce...), nonce, newKey.bytes[:], w.aad)
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
	aead, err := newAEAD(kek)
	if err != nil {
		return Key{}, err
	}
	if len(e.Ciphertext) < nonceSize {
		return Key{}, fmt.Errorf("%w: ciphertext too short", ErrDecrypt)
	}
	nonce, ct := e.Ciphertext[:nonceSize], e.Ciphertext[nonceSize:]
	pt, err := aead.Open(nil, nonce, ct, wrapAAD(e.ID, e.KeyID, e.KeyVersion))
	if err != nil {
		return Key{}, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
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

// wrapAAD binds an encryption to its advertised IDs and version so that a
// relabelled encryption fails authentication.
func wrapAAD(kekID, newKeyID ident.Prefix, version uint64) []byte {
	return appendWrapAAD(make([]byte, 0, kekID.Len()+newKeyID.Len()+10), kekID, newKeyID, version)
}

func appendWrapAAD(dst []byte, kekID, newKeyID ident.Prefix, version uint64) []byte {
	dst = append(dst, byte(kekID.Len()))
	dst = append(dst, kekID.Key()...)
	dst = append(dst, byte(newKeyID.Len()))
	dst = append(dst, newKeyID.Key()...)
	return binary.BigEndian.AppendUint64(dst, version)
}
