package split

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
)

// TestFilterQuick: the reference filter keeps exactly the encryptions whose ID is
// prefix-related to the subtree (brute-force comparison), and filtering
// is idempotent and monotone under subtree refinement.
func TestFilterQuick(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(11))
	randPrefix := func() ident.Prefix {
		l := rng.Intn(params.Digits + 1)
		digits := make([]ident.Digit, l)
		for i := range digits {
			digits[i] = rng.Intn(params.Base)
		}
		p, err := ident.PrefixOf(params, digits)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	prop := func() bool {
		var encs []keycrypt.Encryption
		for i := 0; i < rng.Intn(30); i++ {
			encs = append(encs, keycrypt.Encryption{ID: randPrefix()})
		}
		subtree := randPrefix()
		got := filter(encs, subtree)
		// Brute force membership check.
		want := 0
		for _, e := range encs {
			if e.ID.Related(subtree) {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		// Idempotence: filtering the result again changes nothing.
		if len(filter(got, subtree)) != len(got) {
			return false
		}
		// Refinement: a child subtree's filter result is a subset of
		// its parent's.
		if subtree.Len() < params.Digits {
			child := subtree.Child(ident.Digit(rng.Intn(params.Base)))
			childGot := filter(encs, child)
			if len(childGot) > len(got) {
				return false
			}
			parentSet := make(map[ident.Prefix]int)
			for _, e := range got {
				parentSet[e.ID]++
			}
			for _, e := range childGot {
				if parentSet[e.ID] == 0 {
					return false
				}
				parentSet[e.ID]--
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPacketizeQuick: packetization preserves every encryption exactly
// once and in order, for any packet size.
func TestPacketizeQuick(t *testing.T) {
	prop := func(n uint8, sizeRaw uint8) bool {
		encs := make([]keycrypt.Encryption, int(n)%200)
		for i := range encs {
			encs[i].KeyVersion = uint64(i)
		}
		size := int(sizeRaw)%40 + 1
		pkts := Packetize(encs, size)
		var flat []keycrypt.Encryption
		for _, p := range pkts {
			if len(p) == 0 || len(p) > size {
				return false
			}
			flat = append(flat, p...)
		}
		if len(flat) != len(encs) {
			return false
		}
		for i := range encs {
			if flat[i].KeyVersion != encs[i].KeyVersion {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFilterPacketsSuperset: packet-level filtering never delivers fewer
// needed encryptions than encryption-level filtering for the same
// subtree.
func TestFilterPacketsSuperset(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 4}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		var encs []keycrypt.Encryption
		for i := 0; i < rng.Intn(40); i++ {
			l := rng.Intn(params.Digits + 1)
			digits := make([]ident.Digit, l)
			for j := range digits {
				digits[j] = rng.Intn(params.Base)
			}
			p, err := ident.PrefixOf(params, digits)
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, keycrypt.Encryption{ID: p, KeyVersion: uint64(i)})
		}
		subtreeDigits := []ident.Digit{rng.Intn(params.Base)}
		subtree, err := ident.PrefixOf(params, subtreeDigits)
		if err != nil {
			t.Fatal(err)
		}
		encLevel := filter(encs, subtree)
		pktLevel := FilterPackets(Packetize(encs, rng.Intn(6)+1), subtree)
		inPkts := make(map[uint64]bool)
		total := 0
		for _, p := range pktLevel {
			for _, e := range p {
				inPkts[e.KeyVersion] = true
				total++
			}
		}
		for _, e := range encLevel {
			if !inPkts[e.KeyVersion] {
				t.Fatalf("trial %d: packet filtering dropped needed encryption %d", trial, e.KeyVersion)
			}
		}
		if total < len(encLevel) {
			t.Fatalf("trial %d: packet level carried %d < %d", trial, total, len(encLevel))
		}
	}
}
