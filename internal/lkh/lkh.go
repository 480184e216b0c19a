// Package lkh implements the original key tree baseline: a Wong-Gouda-Lam
// logical key hierarchy [28] of fixed degree (the paper uses degree 4,
// "proved to be optimal in terms of rekey cost per join or leave") with
// the periodic batch rekeying algorithm of Zhang-Lam-Lee-Yang [32].
//
// Unlike the modified key tree of package keytree, the original tree has
// a fixed degree and grows vertically: joining u-nodes take the positions
// of departed u-nodes when possible and otherwise split the shallowest
// leaf. Keys here are abstract (the experiments using this baseline only
// count encryptions and match encryption IDs against user key paths);
// nodes carry stable integer IDs that identify keys and encryptions.
package lkh

import (
	"fmt"
	"sort"
)

// UserHandle identifies a user in the tree across its lifetime.
type UserHandle int

// Encryption identifies one {newKey(Parent)}_{key(Child)} unit of a batch
// rekey message.
type Encryption struct {
	// Child is the node whose key encrypts (the holders of Child's key
	// can open this encryption).
	Child int
	// Parent is the node whose new key is wrapped.
	Parent int
}

// Message is the batch rekey message of one interval.
type Message struct {
	Encryptions []Encryption
}

// Cost returns the rekey cost in encryptions.
func (m *Message) Cost() int { return len(m.Encryptions) }

type node struct {
	id       int
	parent   *node
	children []*node
	user     UserHandle // valid when leaf u-node (>= 1)
}

func (n *node) isUser() bool { return n.user >= 1 }

// Tree is the key server's original key tree. Not safe for concurrent
// use.
type Tree struct {
	degree   int
	root     *node
	nextID   int
	nextUser UserHandle
	leaves   map[UserHandle]*node
}

// New creates an empty tree of the given degree (>= 2).
func New(degree int) (*Tree, error) {
	if degree < 2 {
		return nil, fmt.Errorf("lkh: degree must be >= 2, got %d", degree)
	}
	return &Tree{degree: degree, nextUser: 1, leaves: make(map[UserHandle]*node)}, nil
}

// NewFullBalanced creates a tree of the given degree holding n users,
// packed as a full balanced tree (the paper assumes the original tree is
// full and balanced after the initial joins).
func NewFullBalanced(degree, n int) (*Tree, []UserHandle, error) {
	t, err := New(degree)
	if err != nil {
		return nil, nil, err
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("lkh: need at least one user, got %d", n)
	}
	users := make([]UserHandle, 0, n)
	t.root = t.newNode()
	users = t.buildBalanced(t.root, n, users)
	return t, users, nil
}

// buildBalanced fills parent with n users, splitting them across up to
// `degree` child subtrees as evenly as possible.
func (t *Tree) buildBalanced(parent *node, n int, users []UserHandle) []UserHandle {
	if n <= t.degree {
		for i := 0; i < n; i++ {
			u := t.newUserNode()
			t.link(parent, u)
			users = append(users, u.user)
		}
		return users
	}
	per := n / t.degree
	extra := n % t.degree
	for i := 0; i < t.degree; i++ {
		size := per
		if i < extra {
			size++
		}
		if size == 0 {
			continue
		}
		if size == 1 {
			u := t.newUserNode()
			t.link(parent, u)
			users = append(users, u.user)
			continue
		}
		child := t.newNode()
		t.link(parent, child)
		users = t.buildBalanced(child, size, users)
	}
	return users
}

func (t *Tree) newNode() *node {
	t.nextID++
	return &node{id: t.nextID, user: 0}
}

func (t *Tree) newUserNode() *node {
	n := t.newNode()
	n.user = t.nextUser
	t.nextUser++
	t.leaves[n.user] = n
	return n
}

func (t *Tree) link(parent, child *node) {
	child.parent = parent
	parent.children = append(parent.children, child)
}

// Size returns the number of users.
func (t *Tree) Size() int { return len(t.leaves) }

// Users returns the current user handles in ascending order.
func (t *Tree) Users() []UserHandle {
	out := make([]UserHandle, 0, len(t.leaves))
	for u := range t.leaves {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathNodeIDs returns the node IDs on the user's key path: its u-node
// first, then each k-node up to the root. These are the keys the user
// holds; the user needs an encryption e iff e.Parent is in this set (and
// can open it iff e.Child is in this set).
func (t *Tree) PathNodeIDs(u UserHandle) ([]int, error) {
	leaf, ok := t.leaves[u]
	if !ok {
		return nil, fmt.Errorf("lkh: unknown user %d", u)
	}
	var out []int
	for n := leaf; n != nil; n = n.parent {
		out = append(out, n.id)
	}
	return out, nil
}

// Batch processes one rekey interval with the [32] algorithm: nJoins new
// users and the given leavers. Joining u-nodes first take the positions
// of departed u-nodes; extra joiners go to the shallowest k-node with
// spare capacity, or split the shallowest u-node; extra departures are
// pruned. It returns the rekey message and the handles of the new users.
func (t *Tree) Batch(nJoins int, leavers []UserHandle) (*Message, []UserHandle, error) {
	if nJoins < 0 {
		return nil, nil, fmt.Errorf("lkh: negative join count %d", nJoins)
	}
	seen := make(map[UserHandle]bool, len(leavers))
	departed := make([]*node, 0, len(leavers))
	for _, u := range leavers {
		leaf, ok := t.leaves[u]
		if !ok {
			return nil, nil, fmt.Errorf("lkh: leave of unknown user %d", u)
		}
		if seen[u] {
			return nil, nil, fmt.Errorf("lkh: duplicate leaver %d", u)
		}
		seen[u] = true
		departed = append(departed, leaf)
		delete(t.leaves, u)
	}

	updated := make(map[*node]bool) // k-nodes whose keys must change
	markPath := func(n *node) {
		for p := n.parent; p != nil; p = p.parent {
			updated[p] = true
		}
	}

	newUsers := make([]UserHandle, 0, nJoins)
	joinsLeft := nJoins

	// Phase 1: joiners replace departed u-nodes in place.
	replaced := 0
	for _, leaf := range departed {
		if joinsLeft == 0 {
			break
		}
		// Reuse the position: new user, fresh node identity (fresh key).
		t.nextID++
		leaf.id = t.nextID
		leaf.user = t.nextUser
		t.nextUser++
		t.leaves[leaf.user] = leaf
		newUsers = append(newUsers, leaf.user)
		markPath(leaf)
		joinsLeft--
		replaced++
	}

	// Phase 2: prune remaining departed u-nodes.
	for _, leaf := range departed[replaced:] {
		markPath(leaf)
		t.unlink(leaf, updated)
	}

	// Phase 3: place remaining joiners.
	for ; joinsLeft > 0; joinsLeft-- {
		leaf, split, err := t.insertOne()
		if err != nil {
			return nil, nil, err
		}
		newUsers = append(newUsers, leaf.user)
		markPath(leaf)
		if split != nil {
			// A k-node created by splitting a u-node gets a fresh key
			// that both its users must receive.
			updated[split] = true
		}
	}

	// Emit encryptions: each updated k-node's new key wrapped under each
	// current child's key. Deterministic order: by node id.
	ordered := make([]*node, 0, len(updated))
	for n := range updated {
		if t.contains(n) {
			ordered = append(ordered, n)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	msg := &Message{}
	for _, n := range ordered {
		for _, c := range n.children {
			msg.Encryptions = append(msg.Encryptions, Encryption{Child: c.id, Parent: n.id})
		}
	}
	return msg, newUsers, nil
}

// contains reports whether n is still attached to the tree.
func (t *Tree) contains(n *node) bool {
	for p := n; p != nil; p = p.parent {
		if p == t.root {
			return true
		}
	}
	return false
}

// unlink removes a leaf and prunes/compacts ancestors: empty k-nodes are
// removed; a non-root k-node left with a single child has the child
// promoted into its position (keeping the tree compact, as in [32]).
func (t *Tree) unlink(leaf *node, updated map[*node]bool) {
	parent := leaf.parent
	if parent == nil {
		// Sole user was the tree root's only child; the tree empties.
		if t.root == leaf {
			t.root = nil
		}
		return
	}
	removeChild(parent, leaf)
	for n := parent; n != nil && n != t.root; {
		up := n.parent
		switch len(n.children) {
		case 0:
			removeChild(up, n)
			delete(updated, n)
		case 1:
			// Promote the single child.
			child := n.children[0]
			replaceChild(up, n, child)
			delete(updated, n)
		}
		n = up
	}
	if t.root != nil && len(t.root.children) == 0 {
		t.root = nil
	}
}

func removeChild(parent, child *node) {
	for i, c := range parent.children {
		if c == child {
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			child.parent = nil
			return
		}
	}
}

func replaceChild(parent, old, repl *node) {
	for i, c := range parent.children {
		if c == old {
			parent.children[i] = repl
			repl.parent = parent
			old.parent = nil
			return
		}
	}
}

// insertOne adds a single new user at the shallowest k-node with spare
// capacity, splitting the shallowest u-node when the tree is full. It
// returns the new leaf and, in the split case, the freshly created
// k-node.
func (t *Tree) insertOne() (*node, *node, error) {
	if t.root == nil {
		t.root = t.newNode()
	}
	// BFS for the shallowest k-node with < degree children; also track
	// the shallowest u-node for the split case.
	queue := []*node{t.root}
	var shallowUser *node
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.isUser() {
			if shallowUser == nil {
				shallowUser = n
			}
			continue
		}
		if len(n.children) < t.degree {
			leaf := t.newUserNode()
			t.link(n, leaf)
			return leaf, nil, nil
		}
		queue = append(queue, n.children...)
	}
	if shallowUser == nil {
		return nil, nil, fmt.Errorf("lkh: no position found for join")
	}
	// Split: replace the u-node with a k-node holding it and the newcomer.
	parent := shallowUser.parent
	k := t.newNode()
	replaceChild(parent, shallowUser, k)
	t.link(k, shallowUser)
	leaf := t.newUserNode()
	t.link(k, leaf)
	return leaf, k, nil
}

// Check verifies structural invariants: every leaf map entry is attached,
// every k-node has between 1 and degree children, and every u-node is a
// leaf. It returns the first violation, or nil.
func (t *Tree) Check() error {
	if t.root == nil {
		if len(t.leaves) != 0 {
			return fmt.Errorf("lkh: %d users but no root", len(t.leaves))
		}
		return nil
	}
	count := 0
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.isUser() {
			count++
			if len(n.children) != 0 {
				return fmt.Errorf("lkh: u-node %d has children", n.id)
			}
			if t.leaves[n.user] != n {
				return fmt.Errorf("lkh: u-node %d not indexed", n.id)
			}
			return nil
		}
		if len(n.children) == 0 || len(n.children) > t.degree {
			return fmt.Errorf("lkh: k-node %d has %d children (degree %d)", n.id, len(n.children), t.degree)
		}
		for _, c := range n.children {
			if c.parent != n {
				return fmt.Errorf("lkh: broken parent link at %d", c.id)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if count != len(t.leaves) {
		return fmt.Errorf("lkh: tree has %d u-nodes, index has %d", count, len(t.leaves))
	}
	return nil
}
