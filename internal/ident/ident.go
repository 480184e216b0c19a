// Package ident implements the user identification scheme of the T-mesh
// group rekeying system: fixed-length user IDs made of D digits of base B,
// ID prefixes, and the conceptual ID tree (Definitions 1 and 2 of the
// paper).
//
// Every user in a group holds a unique ID of exactly D digits. Digits are
// counted from left to right, the leftmost digit being digit 0. All user IDs
// and their prefixes form the ID tree: the root is the empty prefix "[]",
// a node at level i is a prefix of i digits, and the leaf nodes at level D
// are the user IDs themselves. The same scheme identifies keys of the
// modified key tree and the encryptions generated during rekeying, which is
// what makes stateless rekey-message splitting possible (Lemma 3).
package ident

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Digit is one position of a user ID. Params.Validate caps B at the
// paper's 256, so a single byte per digit is always sufficient; the type
// is widened to allow intermediate arithmetic without casts.
type Digit = int

// Params fixes the shape of the ID space for one group: IDs have exactly
// Digits digits, each in [0, Base).
type Params struct {
	// Digits is D, the number of digits in a user ID. Must be >= 1.
	Digits int
	// Base is B, the base of each digit. Must be in [2, 256]: an ID
	// stores one byte per digit.
	Base int
}

// DefaultParams are the values used throughout the paper's simulations:
// D = 5 and B = 256.
var DefaultParams = Params{Digits: 5, Base: 256}

// Base32For returns the smallest base-32 ID space that holds n IDs.
func Base32For(n int) Params {
	p := Params{Digits: 1, Base: 32}
	for capacity := 32; capacity < n; capacity *= 32 {
		p.Digits++
	}
	return p
}

// Validate reports whether the parameters describe a usable ID space.
func (p Params) Validate() error {
	if p.Digits < 1 {
		return fmt.Errorf("ident: Digits must be >= 1, got %d", p.Digits)
	}
	if p.Base < 2 || p.Base > 256 {
		return fmt.Errorf("ident: Base must be in [2, 256], got %d", p.Base)
	}
	return nil
}

// Capacity returns the number of distinct IDs, saturating at the maximum
// int value on overflow.
func (p Params) Capacity() int {
	cap := 1
	for i := 0; i < p.Digits; i++ {
		next := cap * p.Base
		if next/p.Base != cap {
			return int(^uint(0) >> 1)
		}
		cap = next
	}
	return cap
}

// ID is a complete user ID: exactly D digits of base B. The zero value is
// not a valid ID; construct IDs with New or FromInt.
//
// An ID is immutable after construction; all methods treat the receiver as
// read-only.
type ID struct {
	digits string // one byte per digit; base <= 256 always holds
}

// Prefix is the first l digits of an ID, 0 <= l <= D. The empty prefix
// (the paper's "[]") is the ID of the tree root, of the key server, and of
// the group key. Prefix values are comparable with == and usable as map
// keys, which the overlay and key tree rely on.
type Prefix struct {
	digits string
}

// EmptyPrefix is the null-string prefix "[]" — the root of the ID tree.
var EmptyPrefix = Prefix{}

// ErrBadDigit is returned when a digit is outside [0, Base).
var ErrBadDigit = errors.New("ident: digit out of range")

// New builds an ID from the given digits. It returns an error unless p
// is valid, len(digits) == p.Digits and every digit is in [0, p.Base).
func New(p Params, digits []Digit) (ID, error) {
	if len(digits) != p.Digits {
		return ID{}, fmt.Errorf("ident: ID needs exactly %d digits, got %d", p.Digits, len(digits))
	}
	pfx, err := PrefixOf(p, digits)
	return ID(pfx), err
}

// MustNew is New but panics on error. It is intended for tests and for
// literals whose validity is clear from the call site.
func MustNew(p Params, digits []Digit) ID {
	id, err := New(p, digits)
	if err != nil {
		panic(err)
	}
	return id
}

// FromInt builds the ID whose digits are the base-B representation of n,
// most significant digit first. It errors if n is negative or does not fit
// in D digits, or if p is not valid. It is a convenient way to enumerate
// distinct IDs in tests.
func FromInt(p Params, n int) (ID, error) {
	if err := p.Validate(); err != nil {
		return ID{}, err
	}
	if n < 0 {
		return ID{}, fmt.Errorf("ident: FromInt needs n >= 0, got %d", n)
	}
	digits := make([]Digit, p.Digits)
	for i := p.Digits - 1; i >= 0; i-- {
		digits[i] = n % p.Base
		n /= p.Base
	}
	if n != 0 {
		return ID{}, fmt.Errorf("ident: value does not fit in %d base-%d digits", p.Digits, p.Base)
	}
	return New(p, digits)
}

// FreeID draws IDs uniformly from the ID space until one is not taken.
// It is the soak drivers' stand-in for the assignment protocol: two
// drivers seeding rng alike and churning alike draw the same IDs.
func FreeID(p Params, rng *rand.Rand, taken func(ID) bool) (ID, error) {
	capacity := p.Capacity()
	for tries := 0; tries < 64*capacity; tries++ {
		id, err := FromInt(p, rng.Intn(capacity))
		if err != nil {
			return ID{}, err
		}
		if !taken(id) {
			return id, nil
		}
	}
	return ID{}, fmt.Errorf("ident: no free ID in %d draws from a space of %d", 64*capacity, capacity)
}

// ParsePrefix reads the "[d0,d1,...]" notation of Prefix.String back,
// with every digit in 0–255 and no Params to check against; "[]" is the
// empty prefix.
func ParsePrefix(s string) (Prefix, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return Prefix{}, fmt.Errorf("ident: malformed ID %q", s)
	}
	body := s[1 : len(s)-1]
	if body == "" {
		return EmptyPrefix, nil
	}
	parts := strings.Split(body, ",")
	digits := make([]byte, 0, len(parts))
	for _, part := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d < 0 || d > 255 {
			return Prefix{}, fmt.Errorf("ident: malformed digit %q in %q", part, s)
		}
		digits = append(digits, byte(d))
	}
	return Prefix{digits: string(digits)}, nil
}

// Len returns D, the number of digits.
func (id ID) Len() int { return len(id.digits) }

// Digit returns the i-th digit (0-based, counted from the left, as in the
// paper's u.ID[i]).
func (id ID) Digit(i int) Digit { return Digit(id.digits[i]) }

// Prefix returns the prefix of the first l digits, the paper's
// u.ID[0 : l-1]. l = 0 yields the empty prefix; l = D yields the whole ID
// as a prefix.
func (id ID) Prefix(l int) Prefix {
	return Prefix{digits: id.digits[:l]}
}

// AsPrefix returns the full ID viewed as a level-D prefix.
func (id ID) AsPrefix() Prefix { return Prefix{digits: id.digits} }

// HasPrefix reports whether p is a prefix of the ID. Every ID has the
// empty prefix.
func (id ID) HasPrefix(p Prefix) bool {
	return strings.HasPrefix(id.digits, p.digits)
}

// CommonPrefixLen returns the number of leading digits shared by two IDs.
func (id ID) CommonPrefixLen(other ID) int {
	n := min(len(id.digits), len(other.digits))
	for i := 0; i < n; i++ {
		if id.digits[i] != other.digits[i] {
			return i
		}
	}
	return n
}

// Equal reports whether two IDs are identical.
func (id ID) Equal(other ID) bool { return id.digits == other.digits }

// IsZero reports whether the ID is the zero value (i.e. unset, as opposed
// to the all-zero-digits ID, which is valid).
func (id ID) IsZero() bool { return id.digits == "" }

// Compare orders IDs lexicographically by digits; it returns -1, 0, or +1.
func (id ID) Compare(other ID) int { return strings.Compare(id.digits, other.digits) }

// String renders the ID in the paper's notation, e.g. "[0,2,1]".
func (id ID) String() string { return formatDigits(id.digits) }

// Key returns a compact comparable representation suitable for map keys.
func (id ID) Key() string { return id.digits }

// Len returns the number of digits in the prefix (its level in the ID
// tree).
func (p Prefix) Len() int { return len(p.digits) }

// Digit returns the i-th digit of the prefix.
func (p Prefix) Digit(i int) Digit { return Digit(p.digits[i]) }

// Child returns the prefix extended with one more digit.
func (p Prefix) Child(d Digit) Prefix {
	// Note: string([]byte{...}), not string(byte(...)) — the latter
	// would UTF-8-encode digits >= 128 into two bytes.
	return Prefix{digits: p.digits + string([]byte{byte(d)})}
}

// Parent returns the prefix with the last digit removed. The parent of the
// empty prefix is the empty prefix itself.
func (p Prefix) Parent() Prefix {
	if p.digits == "" {
		return p
	}
	return Prefix{digits: p.digits[:len(p.digits)-1]}
}

// HasPrefix reports whether q is a prefix of p. A prefix is a prefix of
// itself; the empty prefix is a prefix of everything.
func (p Prefix) HasPrefix(q Prefix) bool {
	return strings.HasPrefix(p.digits, q.digits)
}

// IsPrefixOfID reports whether p is a prefix of the ID.
func (p Prefix) IsPrefixOfID(id ID) bool { return id.HasPrefix(p) }

// Related reports whether one of p, q is a prefix of the other. This is
// exactly the test of Theorem 2 that decides whether an encryption must be
// forwarded toward a subtree.
func (p Prefix) Related(q Prefix) bool {
	return p.HasPrefix(q) || q.HasPrefix(p)
}

// String renders the prefix in the paper's notation; the empty prefix is
// "[]".
func (p Prefix) String() string { return formatDigits(p.digits) }

// Key returns a compact comparable representation suitable for map keys.
func (p Prefix) Key() string { return p.digits }

// PrefixFromKey reconstructs a Prefix from the value returned by
// Prefix.Key.
func PrefixFromKey(k string) Prefix { return Prefix{digits: k} }

// IDFromKey reconstructs an ID from the value returned by ID.Key.
func IDFromKey(k string) ID { return ID{digits: k} }

// PrefixOf builds a prefix directly from digits; it errors if p is not
// valid, if any digit is out of range or if there are more than p.Digits
// of them.
func PrefixOf(p Params, digits []Digit) (Prefix, error) {
	if err := p.Validate(); err != nil {
		return Prefix{}, err
	}
	if len(digits) > p.Digits {
		return Prefix{}, fmt.Errorf("ident: prefix of %d digits exceeds D=%d", len(digits), p.Digits)
	}
	var b strings.Builder
	b.Grow(len(digits))
	for i, d := range digits {
		if d < 0 || d >= p.Base {
			return Prefix{}, fmt.Errorf("%w: digit %d is %d, base %d", ErrBadDigit, i, d, p.Base)
		}
		b.WriteByte(byte(d))
	}
	return Prefix{digits: b.String()}, nil
}

// FullID converts a level-D prefix back into an ID. It errors if the
// prefix is shorter than D digits.
func (p Prefix) FullID(params Params) (ID, error) {
	if len(p.digits) != params.Digits {
		return ID{}, fmt.Errorf("ident: prefix %v has %d digits, want %d", p, len(p.digits), params.Digits)
	}
	return ID{digits: p.digits}, nil
}

func formatDigits(digits string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < len(digits); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(digits[i])))
	}
	b.WriteByte(']')
	return b.String()
}
