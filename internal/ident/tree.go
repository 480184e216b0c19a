package ident

import (
	"fmt"
	"math/bits"
)

// Tree is the ID tree of Definition 1: the trie of all current user IDs
// and their prefixes. The paper stresses that no single entity maintains
// the ID tree; it is "a conceptual structure to guide protocol design".
// The simulator nevertheless materialises it, because the key server's
// modified key tree must match its structure exactly and because tests
// verify the structural lemmas against it.
//
// Only internal nodes (levels 0..D-1) are stored: a map from prefix to
// slot and a pointer-free slab by slot, each node holding its subtree
// size and its children's digits, so a user ID is one bit in its parent.
// A pruned node's slot is reused LIFO; the key tree files its k-nodes by
// slot (Slot, Width).
//
// Tree is not safe for concurrent mutation; the simulator drives it from a
// single event loop. Reads mutate nothing.
type Tree struct {
	params Params
	slots  map[Prefix]int32 // internal prefix -> slot; the root while non-empty
	nodes  []treeNode       // by slot; a free slot is zero
	free   []int32          // pruned slots
}

type treeNode struct {
	size     int      // user IDs below the node
	children digitSet // digits of the existing children
}

// digitSet is a set of digits; Params.Validate keeps them below 256.
type digitSet [4]uint64

func (s *digitSet) add(d Digit)     { s[d>>6] |= 1 << (d & 63) }
func (s *digitSet) remove(d Digit)  { s[d>>6] &^= 1 << (d & 63) }
func (s digitSet) has(d Digit) bool { return s[d>>6]&(1<<(d&63)) != 0 }

func (s digitSet) count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// each calls fn for every digit in increasing order until fn returns
// false; it reports whether it ran to the end.
func (s digitSet) each(fn func(Digit) bool) bool {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			if !fn(w<<6 | bits.TrailingZeros64(word)) {
				return false
			}
		}
	}
	return true
}

// NewTree returns an empty ID tree over the given ID space.
func NewTree(params Params) *Tree {
	return &Tree{params: params, slots: make(map[Prefix]int32)}
}

// BuildTree constructs the ID tree of a set of user IDs.
func BuildTree(params Params, ids []ID) (*Tree, error) {
	t := NewTree(params)
	for _, id := range ids {
		if err := t.Insert(id); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Params returns the ID-space parameters the tree was built with.
func (t *Tree) Params() Params { return t.params }

// Size returns the number of user IDs (leaves) in the tree.
func (t *Tree) Size() int { return t.node(EmptyPrefix).size }

// node returns the internal node at the prefix, or the zero node.
func (t *Tree) node(p Prefix) treeNode {
	if s, ok := t.slots[p]; ok {
		return t.nodes[s]
	}
	return treeNode{}
}

// Contains reports whether the exact user ID is present.
func (t *Tree) Contains(id ID) bool {
	d := id.Len() - 1
	return d+1 == t.params.Digits && t.node(id.Prefix(d)).children.has(id.Digit(d))
}

// Insert adds a user ID, creating any missing prefix nodes (the paper's
// join-time key tree growth mirrors this). Inserting a duplicate ID is an
// error: user IDs are unique by construction.
func (t *Tree) Insert(id ID) error {
	if id.Len() != t.params.Digits {
		return fmt.Errorf("ident: inserting ID %v with %d digits into D=%d tree", id, id.Len(), t.params.Digits)
	}
	if t.Contains(id) {
		return fmt.Errorf("ident: duplicate ID %v", id)
	}
	for l := 0; l < id.Len(); l++ {
		p := id.Prefix(l)
		s, ok := t.slots[p]
		if !ok {
			if n := len(t.free); n > 0 {
				s, t.free = t.free[n-1], t.free[:n-1]
			} else {
				s = int32(len(t.nodes))
				t.nodes = append(t.nodes, treeNode{})
			}
			t.slots[p] = s
		}
		t.nodes[s].size++
		t.nodes[s].children.add(id.Digit(l))
	}
	return nil
}

// Remove deletes a user ID and prunes prefix nodes that no longer have
// descendants, exactly as the key server prunes k-nodes for leaving users.
func (t *Tree) Remove(id ID) error {
	if !t.Contains(id) {
		return fmt.Errorf("ident: removing absent ID %v", id)
	}
	pruned := true // the node below level l is gone; the user ID always is
	for l := id.Len() - 1; l >= 0; l-- {
		p := id.Prefix(l)
		s := t.slots[p]
		n := &t.nodes[s]
		n.size--
		if pruned {
			n.children.remove(id.Digit(l))
		}
		if pruned = n.size == 0; pruned {
			delete(t.slots, p)
			t.free = append(t.free, s)
		}
	}
	return nil
}

// HasNode reports whether the prefix exists as a node of the ID tree.
func (t *Tree) HasNode(p Prefix) bool { return t.SubtreeSize(p) > 0 }

// SubtreeSize returns the number of user IDs in the ID subtree rooted at
// the prefix (0 if the node does not exist).
func (t *Tree) SubtreeSize(p Prefix) int {
	if p.Len() == t.params.Digits && t.Contains(ID(p)) {
		return 1
	}
	return t.node(p).size
}

// Slot returns the slab slot of the internal node at the prefix; ok is
// false for a user ID or an absent node. A node keeps its slot while it
// exists.
func (t *Tree) Slot(p Prefix) (int, bool) {
	s, ok := t.slots[p]
	return int(s), ok
}

// Width returns the size a slot-indexed slice must have to be indexable
// by every slot. Like RankTable.Width it never shrinks.
func (t *Tree) Width() int { return len(t.nodes) }

// ChildDigits returns the digits of the existing children of the prefix
// node, in increasing order.
func (t *Tree) ChildDigits(p Prefix) []Digit {
	set := t.node(p).children
	out := make([]Digit, 0, set.count())
	set.each(func(d Digit) bool { out = append(out, d); return true })
	return out
}

// ChildCount returns the number of existing children of the prefix node
// (0 if the node does not exist) without allocating.
func (t *Tree) ChildCount(p Prefix) int { return t.node(p).children.count() }

// EachChildDigit calls fn for every existing child digit of the prefix
// node in increasing order, without allocating.
func (t *Tree) EachChildDigit(p Prefix, fn func(Digit)) {
	t.node(p).children.each(func(d Digit) bool { fn(d); return true })
}

// Members returns all user IDs in the subtree rooted at the prefix, in
// increasing ID order. Members(EmptyPrefix) lists the whole group.
func (t *Tree) Members(p Prefix) []ID {
	var out []ID
	t.EachMember(p, func(id ID) { out = append(out, id) })
	return out
}

// EachMember calls fn for every user ID in the subtree rooted at the
// prefix, in increasing ID order.
func (t *Tree) EachMember(p Prefix, fn func(ID)) {
	if t.HasNode(p) {
		t.walk(p, func(q Prefix, _ int) bool {
			if q.Len() == t.params.Digits {
				fn(ID(q))
			}
			return true
		})
	}
}

// Walk visits every node of the tree in pre-order, calling fn with the
// node's prefix and its subtree size. Returning false stops the walk.
func (t *Tree) Walk(fn func(p Prefix, size int) bool) {
	if t.Size() > 0 {
		t.walk(EmptyPrefix, fn)
	}
}

// walk is Walk from the existing node p; it reports whether fn let it
// finish.
func (t *Tree) walk(p Prefix, fn func(p Prefix, size int) bool) bool {
	if p.Len() == t.params.Digits {
		return fn(p, 1)
	}
	n := t.node(p)
	return fn(p, n.size) && n.children.each(func(d Digit) bool { return t.walk(p.Child(d), fn) })
}
