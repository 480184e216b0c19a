package overlay

import (
	"fmt"

	"tmesh/internal/ident"
)

// This file implements the Definition 3 (K-consistency) audit: a sweep
// over every entry of every table.

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
// returns the first violation found, or nil. The sweep is O(N·D·B).
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
