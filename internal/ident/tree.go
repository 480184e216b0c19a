package ident

import (
	"fmt"
	"sort"
)

// Tree is the ID tree of Definition 1: the trie of all current user IDs
// and their prefixes. The paper stresses that no single entity maintains
// the ID tree; it is "a conceptual structure to guide protocol design".
// The simulator nevertheless materialises it, because the key server's
// modified key tree must match its structure exactly and because tests
// verify the structural lemmas against it.
//
// Tree is not safe for concurrent mutation; the simulator drives it from a
// single event loop.
type Tree struct {
	params Params
	// nodes maps a present prefix key to the number of user IDs below it.
	// The empty prefix is present whenever the tree is non-empty.
	nodes map[string]int
	// children maps a present prefix key to the set of child digits that
	// exist at the next level.
	children map[string]map[Digit]struct{}
}

// NewTree returns an empty ID tree over the given ID space.
func NewTree(params Params) *Tree {
	return &Tree{
		params:   params,
		nodes:    make(map[string]int),
		children: make(map[string]map[Digit]struct{}),
	}
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
func (t *Tree) Size() int { return t.nodes[""] }

// Contains reports whether the exact user ID is present.
func (t *Tree) Contains(id ID) bool {
	return t.nodes[id.Key()] > 0 && id.Len() == t.params.Digits
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
	key := id.Key()
	for l := 0; l <= len(key); l++ {
		t.nodes[key[:l]]++
	}
	for l := 1; l <= len(key); l++ {
		parent := key[:l-1]
		set := t.children[parent]
		if set == nil {
			set = make(map[Digit]struct{})
			t.children[parent] = set
		}
		set[Digit(key[l-1])] = struct{}{}
	}
	return nil
}

// Remove deletes a user ID and prunes prefix nodes that no longer have
// descendants, exactly as the key server prunes k-nodes for leaving users.
func (t *Tree) Remove(id ID) error {
	if !t.Contains(id) {
		return fmt.Errorf("ident: removing absent ID %v", id)
	}
	key := id.Key()
	for l := len(key); l >= 0; l-- {
		pfx := key[:l]
		t.nodes[pfx]--
		if t.nodes[pfx] == 0 {
			delete(t.nodes, pfx)
			delete(t.children, pfx)
			if l > 0 {
				parent := key[:l-1]
				if set := t.children[parent]; set != nil {
					delete(set, Digit(key[l-1]))
				}
			}
		}
	}
	return nil
}

// HasNode reports whether the prefix exists as a node of the ID tree.
func (t *Tree) HasNode(p Prefix) bool { return t.nodes[p.Key()] > 0 }

// SubtreeSize returns the number of user IDs in the ID subtree rooted at
// the prefix (0 if the node does not exist).
func (t *Tree) SubtreeSize(p Prefix) int { return t.nodes[p.Key()] }

// ChildDigits returns the digits of the existing children of the prefix
// node, in increasing order.
func (t *Tree) ChildDigits(p Prefix) []Digit {
	set := t.children[p.Key()]
	out := make([]Digit, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// ChildCount returns the number of existing children of the prefix node
// (0 if the node does not exist) without allocating.
func (t *Tree) ChildCount(p Prefix) int { return len(t.children[p.Key()]) }

// EachChildDigit calls fn for every existing child digit of the prefix
// node in increasing order. Unlike ChildDigits it neither allocates nor
// sorts (it probes the child set digit by digit), so per-node tree
// walks can run allocation-free.
func (t *Tree) EachChildDigit(p Prefix, fn func(Digit)) {
	set := t.children[p.Key()]
	for d := 0; d < t.params.Base; d++ {
		if _, ok := set[d]; ok {
			fn(d)
		}
	}
}

// Members returns all user IDs in the subtree rooted at the prefix, in
// increasing ID order. Members(EmptyPrefix) lists the whole group.
func (t *Tree) Members(p Prefix) []ID {
	var out []ID
	t.walkMembers(p, &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func (t *Tree) walkMembers(p Prefix, out *[]ID) {
	if t.nodes[p.Key()] == 0 {
		return
	}
	if p.Len() == t.params.Digits {
		*out = append(*out, ID{digits: p.digits})
		return
	}
	for d := range t.children[p.Key()] {
		t.walkMembers(p.Child(d), out)
	}
}

// Walk visits every node of the tree in pre-order, calling fn with the
// node's prefix and its subtree size. Returning false stops the walk.
func (t *Tree) Walk(fn func(p Prefix, size int) bool) {
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

// NodeCount returns the total number of nodes (prefixes, including the
// root and the leaves) currently in the tree.
func (t *Tree) NodeCount() int { return len(t.nodes) }
