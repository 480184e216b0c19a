package keytree_test

import (
	"fmt"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
)

// Example_paperFig4 is Section 2.4's example on the Fig. 1 group of five
// users, D = 2 and B = 3: u1..u5 = [0,0], [0,1], [2,0], [2,1], [2,2].
// When u5 leaves, the key server changes k-node [2] and the group key
// and wraps each new key under each child of its node: four
// encryptions, {k34}k3, {k34}k4, {k1-4}k12 and {k1-4}k34 in the paper's
// names, deepest first. An encryption's ID is its encrypting key's ID,
// so by Lemma 3 u2 = [0,1] needs exactly the one whose ID, [0], is a
// prefix of its own.
func Example_paperFig4() {
	params := ident.Params{Digits: 2, Base: 3}
	tree, err := keytree.New(params, []byte("fig4"), keytree.Opts{})
	if err != nil {
		panic(err)
	}
	var users []ident.ID
	for _, n := range []int{0, 1, 6, 7, 8} {
		id, err := ident.FromInt(params, n)
		if err != nil {
			panic(err)
		}
		users = append(users, id)
	}
	if _, err := tree.Batch(users, nil); err != nil {
		panic(err)
	}
	fmt.Println("key tree matches the ID tree:", tree.CheckStructure() == nil)
	tree.Structure().Walk(func(p ident.Prefix, size int) bool {
		fmt.Printf("node %v size %d\n", p, size)
		return true
	})

	u2, u5 := users[1], users[4]
	msg, err := tree.Batch(nil, []ident.ID{u5})
	if err != nil {
		panic(err)
	}
	fmt.Printf("u5 %v leaves: rekey cost %d\n", u5, msg.Cost())
	for _, e := range msg.Encryptions {
		fmt.Printf("encryption ID %v wraps key %v\n", e.ID, e.KeyID)
	}
	for _, e := range msg.Encryptions {
		if e.NeededBy(u2) {
			fmt.Printf("u2 %v needs encryption ID %v\n", u2, e.ID)
		}
	}
	// Output:
	// key tree matches the ID tree: true
	// node [] size 5
	// node [0] size 2
	// node [0,0] size 1
	// node [0,1] size 1
	// node [2] size 3
	// node [2,0] size 1
	// node [2,1] size 1
	// node [2,2] size 1
	// u5 [2,2] leaves: rekey cost 4
	// encryption ID [2,0] wraps key [2]
	// encryption ID [2,1] wraps key [2]
	// encryption ID [0] wraps key []
	// encryption ID [2] wraps key []
	// u2 [0,1] needs encryption ID [0]
}
