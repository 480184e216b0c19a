package ident

import (
	"math/rand"
	"testing"
)

func TestRankTableAssignRelease(t *testing.T) {
	p := Params{Digits: 3, Base: 8}
	rt := NewRankTable(0)

	a := MustNew(p, []Digit{0, 0, 1})
	b := MustNew(p, []Digit{0, 0, 2})
	c := MustNew(p, []Digit{0, 0, 3})

	if r := rt.Assign(a); r != 0 {
		t.Fatalf("first rank = %d, want 0", r)
	}
	if r := rt.Assign(b); r != 1 {
		t.Fatalf("second rank = %d, want 1", r)
	}
	if r := rt.Assign(a); r != 0 {
		t.Fatalf("re-assign of held ID returned %d, want its existing rank 0", r)
	}
	if rt.Len() != 2 || rt.Width() != 2 {
		t.Fatalf("Len=%d Width=%d, want 2/2", rt.Len(), rt.Width())
	}

	// Release frees the rank; the next assign reuses it.
	r, ok := rt.Release(a)
	if !ok || r != 0 {
		t.Fatalf("Release(a) = %d,%v, want 0,true", r, ok)
	}
	if _, ok := rt.RankOf(a); ok {
		t.Fatal("released ID still holds a rank")
	}
	if _, ok := rt.IDOf(0); ok {
		t.Fatal("freed rank still resolves to an ID")
	}
	if r := rt.Assign(c); r != 0 {
		t.Fatalf("rank after release = %d, want reused 0", r)
	}
	if rt.Width() != 2 {
		t.Fatalf("Width grew to %d despite reuse", rt.Width())
	}
	if _, ok := rt.Release(a); ok {
		t.Fatal("double release reported ok")
	}
	if err := rt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRankTableIDOfOutOfRange(t *testing.T) {
	rt := NewRankTable(4)
	if _, ok := rt.IDOf(17); ok {
		t.Fatal("IDOf beyond width reported ok")
	}
	if _, ok := rt.IDOf(NoRank); ok {
		t.Fatal("IDOf(NoRank) reported ok")
	}
}

// TestRankTableChurnProperty drives 10k random join/leave intervals and
// checks, throughout, that the ID↔rank mapping round-trips and the free
// list stays exact — the rank-lifecycle contract every rank-indexed
// structure depends on.
func TestRankTableChurnProperty(t *testing.T) {
	p := Params{Digits: 3, Base: 16}
	rt := NewRankTable(0)
	rng := rand.New(rand.NewSource(42))
	members := make(map[string]ID)
	var keys []string // stable iteration/order for deterministic picks

	for interval := 0; interval < 10000; interval++ {
		joins := rng.Intn(4)
		leaves := rng.Intn(4)
		for j := 0; j < joins; j++ {
			id, err := FromInt(p, rng.Intn(p.Capacity()))
			if err != nil {
				t.Fatal(err)
			}
			if _, in := members[id.Key()]; in {
				continue
			}
			rt.Assign(id)
			members[id.Key()] = id
			keys = append(keys, id.Key())
		}
		for l := 0; l < leaves && len(keys) > 0; l++ {
			i := rng.Intn(len(keys))
			id := members[keys[i]]
			if _, ok := rt.Release(id); !ok {
				t.Fatalf("interval %d: member %v held no rank", interval, id)
			}
			delete(members, keys[i])
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}

		if rt.Len() != len(members) {
			t.Fatalf("interval %d: Len=%d, members=%d", interval, rt.Len(), len(members))
		}
		// Spot-check round-trips every interval; full consistency sweep
		// periodically (it walks the whole table).
		for _, key := range keys[:min(len(keys), 8)] {
			id := members[key]
			r, ok := rt.RankOf(id)
			if !ok {
				t.Fatalf("interval %d: %v lost its rank", interval, id)
			}
			back, ok := rt.IDOf(r)
			if !ok || !back.Equal(id) {
				t.Fatalf("interval %d: rank %d of %v resolves to %v", interval, r, id, back)
			}
		}
		if interval%500 == 0 {
			if err := rt.CheckConsistency(); err != nil {
				t.Fatalf("interval %d: %v", interval, err)
			}
		}
	}
	if err := rt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The dense range never exceeds the high-water membership by more
	// than transient churn.
	if rt.Width() > len(members)+10000 {
		t.Fatalf("width %d looks unbounded for %d members", rt.Width(), len(members))
	}
}
