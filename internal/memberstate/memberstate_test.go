package memberstate

import (
	"sort"
	"sync"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
)

var testParams = ident.Params{Digits: 3, Base: 16}

func testID(t *testing.T, n int) ident.ID {
	t.Helper()
	id, err := ident.FromInt(testParams, n)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	u := testID(t, 42)

	if s.Keyring(u) != nil {
		t.Error("empty store returned a keyring")
	}
	if s.Len() != 0 {
		t.Errorf("empty store Len = %d", s.Len())
	}

	tree, err := keytree.New(testParams, []byte("seed"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Batch([]ident.ID{u}, nil); err != nil {
		t.Fatal(err)
	}
	path, err := tree.PathKeys(u)
	if err != nil {
		t.Fatal(err)
	}
	kr, err := keytree.NewKeyring(testParams, u, path)
	if err != nil {
		t.Fatal(err)
	}
	s.PutKeyring(u, kr)
	if s.Keyring(u) != kr {
		t.Error("keyring round trip failed")
	}
	again := &keytree.Keyring{}
	s.PutKeyring(u, again)
	if s.Keyring(u) != again || s.Len() != 1 {
		t.Errorf("replacing the keyring: Len = %d, want 1 holding the new keyring", s.Len())
	}

	s.Remove(u)
	if s.Keyring(u) != nil || s.Len() != 0 {
		t.Error("Remove left state behind")
	}
}

func TestStoreKeysSorted(t *testing.T) {
	s := NewStore()
	var want []string
	for _, n := range []int{900, 3, 512, 77, 4000, 1} {
		id := testID(t, n)
		s.PutKeyring(id, &keytree.Keyring{})
		want = append(want, id.Key())
	}
	sort.Strings(want)
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %q, want %q (must be sorted)", i, got[i], want[i])
		}
	}
}

// TestStoreConcurrentAccess hammers the store from many goroutines;
// run under -race this is the data-race exercise for the lock that
// guards rank assignment and slot growth.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id, err := ident.FromInt(testParams, (w*perWorker+i)%testParams.Capacity())
				if err != nil {
					panic(err)
				}
				s.PutKeyring(id, &keytree.Keyring{})
				_ = s.Keyring(id)
				if i%17 == 0 {
					s.Remove(id)
				}
				if i%31 == 0 {
					_ = s.Len()
					_ = s.Keys()
				}
			}
		}(w)
	}
	wg.Wait()
}

// Keys returns the ID keys of all users with state, sorted, so callers
// can iterate deterministically regardless of rank assignment order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	out := make([]string, 0, s.ranks.Len())
	s.ranks.Each(func(id ident.ID, _ ident.Rank) {
		out = append(out, id.Key())
	})
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}
