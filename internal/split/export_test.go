package split

import (
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
)

// NewWorld hands the external tests the in-package test world: the
// directory, the churn batch's rekey message and the live members.
func NewWorld(t *testing.T, n, j, l int, seed int64) (*overlay.Directory, *keytree.Message, []ident.ID) {
	w := newWorld(t, n, j, l, seed)
	return w.dir, w.msg, w.live
}
