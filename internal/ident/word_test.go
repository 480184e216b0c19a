package ident

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The reference model is the ID as it was first written: a string of
// digit bytes, compared and cut as a string. Every word operation must
// answer exactly as the model does.

// modelString is the paper's notation for a model ID.
func modelString(s string) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < len(s); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(s[i])))
	}
	b.WriteByte(']')
	return b.String()
}

func modelCommonPrefixLen(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// wordOf builds the word of a model ID from the layout the package
// comment states, without the operations under test.
func wordOf(s string) Prefix {
	w := uint64(len(s))
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (56 - 8*i)
	}
	return Prefix{w: w}
}

func sign(x int) int { return min(max(x, -1), 1) }

// checkWordAgainstModel compares every operation on the prefixes of a
// and b (model IDs of params.Digits digits) with the model's answer.
func checkWordAgainstModel(t testing.TB, params Params, a, b string) {
	t.Helper()
	digits := func(s string) []Digit {
		out := make([]Digit, len(s))
		for i := range len(s) { // bytes, not runes
			out[i] = Digit(s[i])
		}
		return out
	}
	ida, idb := MustNew(params, digits(a)), MustNew(params, digits(b))
	if ida.AsPrefix() != wordOf(a) || idb.AsPrefix() != wordOf(b) {
		t.Fatalf("New(%v) = %#x, New(%v) = %#x: not the stated layout", modelString(a), ida.w, modelString(b), idb.w)
	}
	if got, want := ida.CommonPrefixLen(idb), modelCommonPrefixLen(a, b); got != want {
		t.Fatalf("CommonPrefixLen(%v, %v) = %d, model %d", ida, idb, got, want)
	}
	if got, want := sign(ida.Compare(idb)), strings.Compare(a, b); got != want {
		t.Fatalf("ID.Compare(%v, %v) = %d, model %d", ida, idb, got, want)
	}
	if ida.Equal(idb) != (a == b) || ida.Key() != a {
		t.Fatalf("Equal/Key of %v, %v disagree with the model", ida, idb)
	}
	for i := 0; i <= len(a); i++ {
		sp := a[:i]
		p := ida.Prefix(i)
		if p != wordOf(sp) {
			t.Fatalf("%v.Prefix(%d) = %#x, model %v", ida, i, p.w, modelString(sp))
		}
		if q, err := PrefixOf(params, digits(sp)); err != nil || q != p {
			t.Fatalf("PrefixOf(%v) = %v, %v; want %v", modelString(sp), q, err, p)
		}
		if p.Len() != i || !ida.HasPrefix(p) || idb.HasPrefix(p) != strings.HasPrefix(b, sp) {
			t.Fatalf("Len/HasPrefix of %v disagree with the model", p)
		}
		for k := 0; k < i; k++ {
			if p.Digit(k) != Digit(sp[k]) || ida.Digit(k) != Digit(a[k]) {
				t.Fatalf("%v.Digit(%d) = %d, model %d", p, k, p.Digit(k), sp[k])
			}
		}
		if got, want := p.Parent(), wordOf(sp[:max(i-1, 0)]); got != want {
			t.Fatalf("%v.Parent() = %v, model %v", p, got, want)
		}
		if i < len(b) {
			if got, want := p.Child(Digit(b[i])), wordOf(sp+b[i:i+1]); got != want {
				t.Fatalf("%v.Child(%d) = %v, model %v", p, b[i], got, want)
			}
		}
		if got, want := p.String(), modelString(sp); got != want {
			t.Fatalf("String() = %q, model %q", got, want)
		}
		if back, err := ParsePrefix(p.String()); err != nil || back != p {
			t.Fatalf("ParsePrefix(%q) = %v, %v", p.String(), back, err)
		}
		if got := p.AppendDigits([]byte{0xee}); !bytes.Equal(got, []byte("\xee"+sp)) {
			t.Fatalf("%v.AppendDigits = %x, model %x", p, got[1:], sp)
		}
		if back, err := PrefixFromDigits([]byte(sp)); err != nil || back != p {
			t.Fatalf("PrefixFromDigits(%x) = %v, %v", sp, back, err)
		}
		if p.Key() != sp {
			t.Fatalf("%v.Key() = %x, model %x", p, p.Key(), sp)
		}
		for j := 0; j <= len(b); j++ {
			sq := b[:j]
			q := idb.Prefix(j)
			if got, want := sign(p.Compare(q)), strings.Compare(sp, sq); got != want {
				t.Fatalf("Compare(%v, %v) = %d, model %d", p, q, got, want)
			}
			if got, want := p.HasPrefix(q), strings.HasPrefix(sp, sq); got != want {
				t.Fatalf("%v.HasPrefix(%v) = %v, model %v", p, q, got, want)
			}
			if got, want := p.Related(q), strings.HasPrefix(sp, sq) || strings.HasPrefix(sq, sp); got != want {
				t.Fatalf("%v.Related(%v) = %v, model %v", p, q, got, want)
			}
			if (p == q) != (sp == sq) {
				t.Fatalf("%v == %v is %v, model %v", p, q, p == q, sp == sq)
			}
		}
	}
}

// randomModelID draws a model ID of params.Digits digits whose digits
// cluster on the edges of the base (0, 1, B-1, B-2) half the time, so
// equal and all-ones bytes are common.
func randomModelID(rng *rand.Rand, params Params) string {
	b := make([]byte, params.Digits)
	for i := range b {
		if rng.Intn(2) == 0 {
			b[i] = byte([]int{0, 1, params.Base - 1, params.Base - 2}[rng.Intn(4)] % params.Base)
		} else {
			b[i] = byte(rng.Intn(params.Base))
		}
	}
	return string(b)
}

// TestWordMatchesModel: for D = 1..7 and B = 2..256, the {7, 256} edge
// included, random pairs of IDs (often sharing a prefix) and all their
// prefixes answer every operation as the string model does, and a
// sort by Compare is the model's sort.
func TestWordMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for d := 1; d <= MaxDigits; d++ {
		for _, base := range []int{2, 3, 10, 64, 127, 128, 129, 255, 256} {
			params := Params{Digits: d, Base: base}
			var all []string
			for n := 0; n < 40; n++ {
				a, b := randomModelID(rng, params), randomModelID(rng, params)
				if n%3 == 0 { // share a prefix
					l := rng.Intn(d + 1)
					b = a[:l] + b[l:]
				}
				checkWordAgainstModel(t, params, a, b)
				all = append(all, a, b)
			}
			var words []Prefix
			var model []string
			for _, s := range all {
				for l := 0; l <= len(s); l++ {
					words = append(words, wordOf(s[:l]))
					model = append(model, s[:l])
				}
			}
			slices.SortFunc(words, Prefix.Compare)
			slices.Sort(model)
			for i := range words {
				if words[i] != wordOf(model[i]) {
					t.Fatalf("D=%d B=%d: sorted word %d is %v, model %v", d, base, i, words[i], modelString(model[i]))
				}
			}
		}
	}
	edge := Params{Digits: MaxDigits, Base: 256}
	checkWordAgainstModel(t, edge, "\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xfe")
	checkWordAgainstModel(t, edge, "\x00\x00\x00\x00\x00\x00\x00", "\xff\x00\x00\x00\x00\x00\x00")
}

// FuzzWordMatchesModel decodes its input into an ID space (D = 1..7,
// B = 2..256) from the first two bytes and pairs of IDs, D bytes each
// (reduced mod B), from the rest, and checks every pair as
// TestWordMatchesModel does.
func FuzzWordMatchesModel(f *testing.F) {
	f.Add([]byte{6, 254, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 254})
	f.Add([]byte{2, 0, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{4, 62, 0, 63, 64, 0, 0, 63, 64, 1, 9, 9, 9, 9, 9})
	f.Add([]byte{1, 254, 0xcc, 0xa7, 0xcc, 0xa8}) // digits that read as one UTF-8 rune
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		params := Params{Digits: 1 + int(data[0])%MaxDigits, Base: 2 + int(data[1])%255}
		reduce := func(b []byte) string {
			out := make([]byte, len(b))
			for i, d := range b {
				out[i] = byte(int(d) % params.Base)
			}
			return string(out)
		}
		for rest := data[2:]; len(rest) >= 2*params.Digits; rest = rest[2*params.Digits:] {
			checkWordAgainstModel(t, params, reduce(rest[:params.Digits]), reduce(rest[params.Digits:2*params.Digits]))
		}
	})
}

// TestParseRefusesWhatNoWordHolds: more than MaxDigits digits is an
// error from both readers, never a panic.
func TestParseRefusesWhatNoWordHolds(t *testing.T) {
	if p, err := ParsePrefix("[1,2,3,4,5,6,7,8]"); err == nil {
		t.Errorf("ParsePrefix of 8 digits = %v, want an error", p)
	}
	if p, err := PrefixFromDigits(make([]byte, MaxDigits+1)); err == nil {
		t.Errorf("PrefixFromDigits of 8 bytes = %v, want an error", p)
	}
	if p, err := ParsePrefix("[1,2,3,4,5,6,7]"); err != nil || p.Len() != MaxDigits {
		t.Errorf("ParsePrefix of 7 digits = %v, %v", p, err)
	}
}

var (
	sinkID     ID
	sinkPrefix Prefix
	sinkBool   bool
	sinkInt    int
)

// TestWordOpsAllocateNothing pins the word operations the key plane runs
// per event at zero allocations.
func TestWordOpsAllocateNothing(t *testing.T) {
	params := Params{Digits: 5, Base: 256}
	n := 0
	for name, op := range map[string]func(){
		"FromInt": func() { n++; sinkID, _ = FromInt(params, n%params.Capacity()) },
		"Child":   func() { sinkPrefix = sinkPrefix.Prefix(2).Child(n & 0xff) },
		"Parent":  func() { sinkPrefix = sinkID.AsPrefix().Parent() },
		"Prefix":  func() { sinkPrefix = sinkID.Prefix(3) },
		"HasPrefix": func() {
			sinkBool = sinkID.HasPrefix(sinkPrefix)
		},
		"Compare": func() { sinkInt = sinkID.Compare(ID(sinkPrefix)) + sinkPrefix.Compare(EmptyPrefix) },
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, allocs)
		}
	}
}
