package ident

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"default", DefaultParams, false},
		{"minimal", Params{Digits: 1, Base: 2}, false},
		{"zero digits", Params{Digits: 0, Base: 2}, true},
		{"negative digits", Params{Digits: -1, Base: 2}, true},
		{"base one", Params{Digits: 3, Base: 1}, true},
		{"base 256", Params{Digits: 2, Base: 256}, false},
		{"base 257", Params{Digits: 2, Base: 257}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestParamsCapacity(t *testing.T) {
	tests := []struct {
		p    Params
		want int
	}{
		{Params{Digits: 1, Base: 2}, 2},
		{Params{Digits: 3, Base: 4}, 64},
		{Params{Digits: 2, Base: 256}, 65536},
	}
	for _, tt := range tests {
		if got := tt.p.Capacity(); got != tt.want {
			t.Errorf("Capacity(%+v) = %d, want %d", tt.p, got, tt.want)
		}
	}
	// Overflow saturates instead of wrapping.
	huge := Params{Digits: 64, Base: 256}
	if got := huge.Capacity(); got <= 0 {
		t.Errorf("Capacity overflow should saturate positive, got %d", got)
	}
}

func TestNewValidation(t *testing.T) {
	p := Params{Digits: 3, Base: 4}
	if _, err := New(p, []Digit{0, 1}); err == nil {
		t.Error("New with too few digits should fail")
	}
	if _, err := New(p, []Digit{0, 1, 4}); err == nil {
		t.Error("New with out-of-range digit should fail")
	}
	if _, err := New(p, []Digit{0, 1, -1}); err == nil {
		t.Error("New with negative digit should fail")
	}
	// A base above 256 would alias digits d and d-256 in the one byte
	// an ID keeps per digit, so New refuses the space itself.
	wide := Params{Digits: 2, Base: 300}
	if id, err := New(wide, []Digit{1, 280}); err == nil {
		t.Errorf("New in a base-300 space = %v, want an error", id)
	}
	if _, err := New(Params{Digits: 0, Base: 2}, nil); err == nil {
		t.Error("New with zero digits should fail")
	}
	id, err := New(p, []Digit{3, 2, 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := id.String(); got != "[3,2,1]" {
		t.Errorf("String() = %q, want [3,2,1]", got)
	}
}

func TestFromIntRoundTrip(t *testing.T) {
	p := Params{Digits: 3, Base: 5}
	seen := make(map[string]bool)
	for n := 0; n < p.Capacity(); n++ {
		id, err := FromInt(p, n)
		if err != nil {
			t.Fatalf("FromInt(%d): %v", n, err)
		}
		if seen[id.Key()] {
			t.Fatalf("FromInt(%d) collides: %v", n, id)
		}
		seen[id.Key()] = true
	}
	if _, err := FromInt(p, p.Capacity()); err == nil {
		t.Error("FromInt beyond capacity should fail")
	}
	if _, err := FromInt(p, -1); err == nil {
		t.Error("FromInt(-1) should fail")
	}
	for _, bad := range []Params{{Digits: 2, Base: 300}, {Digits: 2, Base: 0}, {Digits: 0, Base: 4}} {
		if id, err := FromInt(bad, 280); err == nil {
			t.Errorf("FromInt(%+v, 280) = %v, want an error", bad, id)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := Params{Digits: 4, Base: 256}
	id := MustNew(p, []Digit{0, 255, 17, 3})
	for _, pre := range []Prefix{EmptyPrefix, id.Prefix(1), id.Prefix(3), id.AsPrefix()} {
		got, err := ParsePrefix(pre.String())
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", pre.String(), err)
		}
		if got != pre {
			t.Errorf("ParsePrefix(%q) = %v, want %v", pre.String(), got, pre)
		}
	}
	if got, err := ParsePrefix(" [ 1, 2 ] "); err != nil || got != MustNew(p, []Digit{1, 2, 0, 0}).Prefix(2) {
		t.Errorf("ParsePrefix with spaces = %v, %v", got, err)
	}
	// The bad inputs of both former readers: missing brackets, a
	// non-integer digit, a digit outside 0–255, an empty digit.
	for _, bad := range []string{"", "[", "]", "0,1", "[0,1", "0,1]", "[x]", "[0,1.5]", "[256]", "[-1]", "[0,,1]", "[,]"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func TestPrefixOperations(t *testing.T) {
	p := Params{Digits: 4, Base: 10}
	id := MustNew(p, []Digit{1, 2, 3, 4})

	if got := id.Prefix(0); got != EmptyPrefix {
		t.Errorf("Prefix(0) = %v, want empty", got)
	}
	pre := id.Prefix(2)
	if pre.String() != "[1,2]" {
		t.Errorf("Prefix(2) = %v, want [1,2]", pre)
	}
	if !id.HasPrefix(pre) {
		t.Error("ID should have its own prefix")
	}
	if !id.HasPrefix(EmptyPrefix) {
		t.Error("every ID has the empty prefix")
	}
	other := MustNew(p, []Digit{1, 2, 9, 9})
	if got := id.CommonPrefixLen(other); got != 2 {
		t.Errorf("CommonPrefixLen = %d, want 2", got)
	}
	if pre.Child(7).String() != "[1,2,7]" {
		t.Errorf("Child(7) = %v", pre.Child(7))
	}
	if pre.Child(7).Parent() != pre {
		t.Error("Parent(Child(d)) should round-trip")
	}
	if EmptyPrefix.Parent() != EmptyPrefix {
		t.Error("parent of empty prefix is itself")
	}
	if pre.Child(7).Digit(2) != 7 {
		t.Errorf("last digit = %d, want 7", pre.Child(7).Digit(2))
	}
	full := id.AsPrefix()
	back, err := full.FullID(p)
	if err != nil || !back.Equal(id) {
		t.Errorf("FullID round trip = %v, %v", back, err)
	}
	if _, err := pre.FullID(p); err == nil {
		t.Error("FullID of short prefix should fail")
	}
}

func TestPrefixRelated(t *testing.T) {
	p := Params{Digits: 3, Base: 4}
	a, _ := PrefixOf(p, []Digit{1, 2})
	b, _ := PrefixOf(p, []Digit{1})
	c, _ := PrefixOf(p, []Digit{1, 3})
	if !a.Related(b) || !b.Related(a) {
		t.Error("ancestor/descendant prefixes must be related")
	}
	if a.Related(c) {
		t.Error("sibling prefixes must not be related")
	}
	if !a.Related(a) {
		t.Error("a prefix is related to itself")
	}
	if !EmptyPrefix.Related(a) {
		t.Error("the empty prefix is related to everything")
	}
}

// Property: for random IDs, u.HasPrefix(u.Prefix(l)) for every l, and
// CommonPrefixLen is symmetric and consistent with digit equality.
func TestPrefixProperties(t *testing.T) {
	p := Params{Digits: 5, Base: 8}
	rng := rand.New(rand.NewSource(7))
	randomID := func() ID {
		digits := make([]Digit, p.Digits)
		for i := range digits {
			digits[i] = rng.Intn(p.Base)
		}
		return MustNew(p, digits)
	}
	prop := func() bool {
		u, w := randomID(), randomID()
		for l := 0; l <= p.Digits; l++ {
			if !u.HasPrefix(u.Prefix(l)) {
				return false
			}
		}
		cl := u.CommonPrefixLen(w)
		if cl != w.CommonPrefixLen(u) {
			return false
		}
		for i := 0; i < cl; i++ {
			if u.Digit(i) != w.Digit(i) {
				return false
			}
		}
		if cl < p.Digits && u.Digit(cl) == w.Digit(cl) {
			return false
		}
		// w has u's prefix exactly up to the common length.
		return w.HasPrefix(u.Prefix(cl)) && (cl == p.Digits || !w.HasPrefix(u.Prefix(cl+1)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Digits >= 128 must occupy exactly one byte in prefix keys (regression:
// string(byte(d)) would UTF-8-encode them into two bytes, making
// Child/key lookups disagree with IDs built from digits).
func TestHighDigitPrefixConsistency(t *testing.T) {
	p := Params{Digits: 3, Base: 256}
	for _, d := range []Digit{0, 127, 128, 147, 255} {
		id := MustNew(p, []Digit{d, d, d})
		if got := EmptyPrefix.Child(d); got.Key() != id.Prefix(1).Key() {
			t.Errorf("Child(%d) key %q != Prefix(1) key %q", d, got.Key(), id.Prefix(1).Key())
		}
		if got := EmptyPrefix.Child(d).Child(d).Child(d); got.Key() != id.Key() {
			t.Errorf("chained Child(%d) != full ID key", d)
		}
		if EmptyPrefix.Child(d).Len() != 1 {
			t.Errorf("Child(%d) has length %d, want 1", d, EmptyPrefix.Child(d).Len())
		}
		if EmptyPrefix.Child(d).Digit(0) != d {
			t.Errorf("Child(%d).Digit(0) = %d", d, EmptyPrefix.Child(d).Digit(0))
		}
	}
}
