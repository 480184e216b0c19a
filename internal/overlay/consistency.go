package overlay

import (
	"fmt"

	"tmesh/internal/ident"
)

// This file implements the Definition 3 (K-consistency) audits: the full
// sweep over every table, and a prefix-scoped variant that checks only
// the entries whose ID subtrees a membership change under that prefix
// can affect. The per-entry validation is shared so the two checks can
// never drift apart.

// checkUserEntry validates one (i,j)-entry of a user table against the
// current membership: diagonal entries must be empty, off-diagonal
// entries must hold min{K, m} neighbors, all from the right ID subtree
// and all current members.
func (d *Directory) checkUserEntry(t *Table, i int, j ident.Digit) error {
	owner := t.Owner()
	entry := t.Entry(i, j)
	if j == owner.ID.Digit(i) {
		if entry.Len() != 0 {
			return fmt.Errorf("overlay: %v's (%d,%d)-entry must be empty, has %d", owner.ID, i, j, entry.Len())
		}
		return nil
	}
	subtree := owner.ID.Prefix(i).Child(j)
	m := d.tree.SubtreeSize(subtree)
	want := min(d.k, m)
	if entry.Len() != want {
		return fmt.Errorf("overlay: %v's (%d,%d)-entry has %d neighbors, want min{K=%d, m=%d}",
			owner.ID, i, j, entry.Len(), d.k, m)
	}
	for _, n := range entry.Neighbors() {
		if !n.ID.HasPrefix(subtree) {
			return fmt.Errorf("overlay: %v's (%d,%d)-entry holds %v outside subtree %v",
				owner.ID, i, j, n.ID, subtree)
		}
		if _, ok := d.rankOf(n.ID); !ok {
			return fmt.Errorf("overlay: %v's (%d,%d)-entry holds departed user %v", owner.ID, i, j, n.ID)
		}
	}
	return nil
}

// checkServerEntry validates the key server's (0,j)-entry.
func (d *Directory) checkServerEntry(j ident.Digit) error {
	entry := d.server.Entry(j)
	m := d.tree.SubtreeSize(ident.EmptyPrefix.Child(j))
	want := min(d.k, m)
	if entry.Len() != want {
		return fmt.Errorf("overlay: server (0,%d)-entry has %d neighbors, want min{K=%d, m=%d}",
			j, entry.Len(), d.k, m)
	}
	for _, n := range entry.Neighbors() {
		if n.ID.Digit(0) != j {
			return fmt.Errorf("overlay: server (0,%d)-entry holds %v with wrong digit", j, n.ID)
		}
	}
	return nil
}

// CheckConsistency verifies Definition 3 (K-consistency) for every user
// table and the key server's table against the current membership. It
// returns the first violation found, or nil. The sweep is O(N·D·B);
// per-interval audits that know which subtrees changed should prefer
// CheckConsistencyUnder.
func (d *Directory) CheckConsistency() error {
	for _, t := range d.tables {
		if t == nil {
			continue
		}
		for i := 0; i < d.params.Digits; i++ {
			for j := 0; j < d.params.Base; j++ {
				if err := d.checkUserEntry(t, i, ident.Digit(j)); err != nil {
					return err
				}
			}
		}
	}
	for j := 0; j < d.params.Base; j++ {
		if err := d.checkServerEntry(ident.Digit(j)); err != nil {
			return err
		}
	}
	return nil
}

// CheckConsistencyUnder verifies K-consistency for exactly the table
// entries a membership change under the given prefix can affect — the
// entries whose ID subtree is related to the prefix (Theorem 2's test):
// either contained in it or containing it. For a level-L prefix that is
// one owner's entry per non-descendant owner plus the bottom D-L rows of
// each descendant owner's table, so auditing the churned subtrees of one
// rekey interval costs O(N + m·D·B) instead of the full O(N·D·B) sweep
// (m = members under the prefix). The empty prefix degenerates to the
// full sweep.
func (d *Directory) CheckConsistencyUnder(p ident.Prefix) error {
	level := p.Len()
	for _, t := range d.tables {
		if t == nil {
			continue
		}
		owner := t.Owner()
		// l = length of the longest common prefix of the owner's ID and p.
		l := 0
		for l < level && owner.ID.Digit(l) == p.Digit(l) {
			l++
		}
		if l < level {
			// The owner sits outside p's subtree: the only related entry
			// is the one holding p's subtree along the owner's path,
			// (l, p[l]). Entries deeper on the owner's path cover
			// subtrees disjoint from p and cannot be affected.
			if err := d.checkUserEntry(t, l, p.Digit(l)); err != nil {
				return err
			}
			continue
		}
		// The owner is inside p's subtree: every entry of rows level..D-1
		// covers a subtree under p. Rows above level hold subtrees that
		// either contain p only on the diagonal (empty by definition) or
		// are disjoint from it.
		for i := level; i < d.params.Digits; i++ {
			for j := 0; j < d.params.Base; j++ {
				if err := d.checkUserEntry(t, i, ident.Digit(j)); err != nil {
					return err
				}
			}
		}
	}
	if level == 0 {
		for j := 0; j < d.params.Base; j++ {
			if err := d.checkServerEntry(ident.Digit(j)); err != nil {
				return err
			}
		}
		return nil
	}
	return d.checkServerEntry(p.Digit(0))
}
