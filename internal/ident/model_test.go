package ident

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// modelTree is the ID tree as it was first written: a subtree count for
// every prefix, user IDs included, and a map of child-digit sets. Tree
// must answer every query exactly as it does.
type modelTree struct {
	params   Params
	nodes    map[string]int
	children map[string]map[Digit]struct{}
}

func newModelTree(params Params) *modelTree {
	return &modelTree{params: params, nodes: make(map[string]int), children: make(map[string]map[Digit]struct{})}
}

func (t *modelTree) Size() int { return t.nodes[""] }

func (t *modelTree) Contains(id ID) bool {
	return t.nodes[id.Key()] > 0 && id.Len() == t.params.Digits
}

func (t *modelTree) Insert(id ID) {
	key := id.Key()
	for l := 0; l <= len(key); l++ {
		t.nodes[key[:l]]++
	}
	for l := 1; l <= len(key); l++ {
		set := t.children[key[:l-1]]
		if set == nil {
			set = make(map[Digit]struct{})
			t.children[key[:l-1]] = set
		}
		set[Digit(key[l-1])] = struct{}{}
	}
}

func (t *modelTree) Remove(id ID) {
	key := id.Key()
	for l := len(key); l >= 0; l-- {
		pfx := key[:l]
		t.nodes[pfx]--
		if t.nodes[pfx] == 0 {
			delete(t.nodes, pfx)
			delete(t.children, pfx)
			if l > 0 {
				delete(t.children[key[:l-1]], Digit(key[l-1]))
			}
		}
	}
}

func (t *modelTree) HasNode(p Prefix) bool { return t.nodes[p.Key()] > 0 }

func (t *modelTree) SubtreeSize(p Prefix) int { return t.nodes[p.Key()] }

func (t *modelTree) ChildDigits(p Prefix) []Digit {
	set := t.children[p.Key()]
	out := make([]Digit, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

func (t *modelTree) ChildCount(p Prefix) int { return len(t.children[p.Key()]) }

func (t *modelTree) EachChildDigit(p Prefix, fn func(Digit)) {
	set := t.children[p.Key()]
	for d := 0; d < t.params.Base; d++ {
		if _, ok := set[d]; ok {
			fn(d)
		}
	}
}

func (t *modelTree) Members(p Prefix) []ID {
	var out []ID
	var rec func(p Prefix)
	rec = func(p Prefix) {
		if t.nodes[p.Key()] == 0 {
			return
		}
		if p.Len() == t.params.Digits {
			out = append(out, ID{digits: p.digits})
			return
		}
		for d := range t.children[p.Key()] {
			rec(p.Child(d))
		}
	}
	rec(p)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func (t *modelTree) Walk(fn func(p Prefix, size int) bool) {
	var rec func(p Prefix) bool
	rec = func(p Prefix) bool {
		size := t.nodes[p.Key()]
		if size == 0 {
			return true
		}
		if !fn(p, size) {
			return false
		}
		for _, d := range t.ChildDigits(p) {
			if !rec(p.Child(d)) {
				return false
			}
		}
		return true
	}
	rec(EmptyPrefix)
}

func (t *modelTree) NodeCount() int { return len(t.nodes) }

// walkOf lists a walk's (prefix, size) visits.
func walkOf(walk func(func(Prefix, int) bool)) []string {
	var out []string
	walk(func(p Prefix, size int) bool {
		out = append(out, fmt.Sprintf("%v:%d", p, size))
		return true
	})
	return out
}

// compareWithModel checks every query of tree against the model: the
// whole-tree ones, and the per-node ones at every prefix of every ID in
// touched (present or not). It also checks that the internal nodes hold
// distinct slots below Width and that user IDs hold none.
func compareWithModel(t testing.TB, tree *Tree, model *modelTree, touched []ID) {
	t.Helper()
	if got, want := tree.Size(), model.Size(); got != want {
		t.Fatalf("Size = %d, model %d", got, want)
	}
	if got, want := tree.NodeCount(), model.NodeCount(); got != want {
		t.Fatalf("NodeCount = %d, model %d", got, want)
	}
	if got, want := walkOf(tree.Walk), walkOf(model.Walk); !slices.Equal(got, want) {
		t.Fatalf("Walk = %v, model %v", got, want)
	}
	slots := make(map[int]Prefix)
	tree.Walk(func(p Prefix, _ int) bool {
		s, ok := tree.Slot(p)
		if p.Len() == tree.Params().Digits {
			if ok {
				t.Fatalf("user ID %v holds slot %d", p, s)
			}
			return true
		}
		if q, dup := slots[s]; !ok || s >= tree.Width() || dup {
			t.Fatalf("node %v: slot %d (%v, width %d), also held by %v", p, s, ok, tree.Width(), q)
		}
		slots[s] = p
		return true
	})
	for _, id := range touched {
		if got, want := tree.Contains(id), model.Contains(id); got != want {
			t.Fatalf("Contains(%v) = %v, model %v", id, got, want)
		}
		for l := 0; l <= id.Len(); l++ {
			p := id.Prefix(l)
			if got, want := tree.HasNode(p), model.HasNode(p); got != want {
				t.Fatalf("HasNode(%v) = %v, model %v", p, got, want)
			}
			if got, want := tree.SubtreeSize(p), model.SubtreeSize(p); got != want {
				t.Fatalf("SubtreeSize(%v) = %d, model %d", p, got, want)
			}
			if got, want := tree.ChildDigits(p), model.ChildDigits(p); !slices.Equal(got, want) {
				t.Fatalf("ChildDigits(%v) = %v, model %v", p, got, want)
			}
			if got, want := tree.ChildCount(p), model.ChildCount(p); got != want {
				t.Fatalf("ChildCount(%v) = %d, model %d", p, got, want)
			}
			var got, want []Digit
			tree.EachChildDigit(p, func(d Digit) { got = append(got, d) })
			model.EachChildDigit(p, func(d Digit) { want = append(want, d) })
			if !slices.Equal(got, want) {
				t.Fatalf("EachChildDigit(%v) = %v, model %v", p, got, want)
			}
			if got, want := tree.Members(p), model.Members(p); !slices.EqualFunc(got, want, ID.Equal) {
				t.Fatalf("Members(%v) = %v, model %v", p, got, want)
			}
		}
	}
}

// toggle inserts id into both trees if absent and removes it if present.
func toggle(t testing.TB, tree *Tree, model *modelTree, id ID) {
	t.Helper()
	if model.Contains(id) {
		model.Remove(id)
		if err := tree.Remove(id); err != nil {
			t.Fatalf("Remove(%v): %v", id, err)
		}
		return
	}
	model.Insert(id)
	if err := tree.Insert(id); err != nil {
		t.Fatalf("Insert(%v): %v", id, err)
	}
}

// TestTreeMatchesModel: random insert/remove sequences over D = 1..4 and
// B = 2..256, drawn from a small pool of IDs whose digits cluster on a
// few values (low and high, so every word of a node's digit set is
// used), prune subtrees and create them again; after every operation
// each query of Tree answers as the model does.
func TestTreeMatchesModel(t *testing.T) {
	for d := 1; d <= 4; d++ {
		for _, b := range []int{2, 3, 5, 64, 65, 129, 200, 256} {
			params := Params{Digits: d, Base: b}
			rng := rand.New(rand.NewSource(int64(d*1000 + b)))
			values := []Digit{0, 1, b / 2, b - 1, 63 % b, 191 % b}
			pool := make([]ID, 24)
			for i := range pool {
				digits := make([]Digit, d)
				for j := range digits {
					digits[j] = values[rng.Intn(len(values))]
				}
				pool[i] = MustNew(params, digits)
			}
			tree, model := NewTree(params), newModelTree(params)
			for step := 0; step < 200; step++ {
				if step%50 == 49 { // empty the tree: the root is pruned too
					for _, id := range model.Members(EmptyPrefix) {
						toggle(t, tree, model, id)
					}
				} else {
					toggle(t, tree, model, pool[rng.Intn(len(pool))])
				}
				compareWithModel(t, tree, model, pool)
			}
		}
	}
}

// FuzzTreeMatchesModel decodes its input into an ID space (D = 1..3,
// B in {2, 3, 5, 256}) from the first two bytes and a sequence of user
// IDs, D bytes each, from the rest; each ID is inserted if absent and
// removed if present, and after every operation each query of Tree
// answers as the model does.
func FuzzTreeMatchesModel(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 1, 2, 0, 2, 1, 2, 2, 2, 2, 0, 0}) // Fig. 1, then u5 leaves
	f.Add([]byte{2, 3, 0, 0, 0, 0, 0, 255, 128, 64, 63, 0, 0, 0, 0, 0, 255})
	f.Add([]byte{0, 1, 7, 7, 7, 7, 1, 1})
	f.Add([]byte{2, 2, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 3, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		params := Params{Digits: 1 + int(data[0])%3, Base: []int{2, 3, 5, 256}[data[1]%4]}
		tree, model := NewTree(params), newModelTree(params)
		var touched []ID
		for rest := data[2:]; len(rest) >= params.Digits && len(touched) < 64; rest = rest[params.Digits:] {
			digits := make([]Digit, params.Digits)
			for i := range digits {
				digits[i] = Digit(rest[i]) % params.Base
			}
			id := MustNew(params, digits)
			touched = append(touched, id)
			toggle(t, tree, model, id)
			compareWithModel(t, tree, model, touched)
		}
	})
}
