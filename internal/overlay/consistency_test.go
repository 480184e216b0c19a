package overlay

import (
	"math/rand"
	"testing"

	"tmesh/internal/ident"
)

// TestFullCheckCatchesCorruptedEntry: a directory that passes the sweep
// fails it once one entry loses a neighbor without a refill.
func TestFullCheckCatchesCorruptedEntry(t *testing.T) {
	d := newDir(t, 2, 40)
	rng := rand.New(rand.NewSource(13))
	joinN(t, d, 25, rng)
	if err := d.CheckConsistency(); err != nil {
		t.Fatalf("full check on consistent directory: %v", err)
	}
	corruptOneEntry(t, d)
	if err := d.CheckConsistency(); err == nil {
		t.Error("full check missed corrupted entry")
	}
}

// corruptOneEntry removes one neighbor from some owner's table without
// refilling the entry. Only works on directories with more members than
// K in some subtree.
func corruptOneEntry(t *testing.T, d *Directory) {
	t.Helper()
	for _, owner := range d.IDs() {
		tab, _ := d.TableOf(owner)
		for i := 0; i < d.params.Digits; i++ {
			for j := 0; j < d.params.Base; j++ {
				entry := tab.Entry(i, ident.Digit(j))
				if entry.Len() == 0 {
					continue
				}
				subtree := owner.Prefix(i).Child(ident.Digit(j))
				if d.tree.SubtreeSize(subtree) <= entry.Len() {
					continue // dropping would still satisfy min{K, m}... not: want < min
				}
				n := entry.Neighbors()[0]
				tab.Remove(n.ID)
				return
			}
		}
	}
	t.Fatal("no corruptible entry found")
}
