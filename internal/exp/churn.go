package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// churnGroup is the world the ablation, packet, loss and congestion
// runners measure: a GT-ITM topology, a directory populated through the
// Section 3.1 assignment protocol, and the key tree over the same IDs.
// Every random choice comes from one RNG seeded with the configured
// seed, drawn in a fixed order (assignment probes per join, then
// whatever the runner draws, then the leavers), so a seed names one
// group.
type churnGroup struct {
	net  vnet.Network
	rng  *rand.Rand
	dir  *overlay.Directory
	tree *keytree.Tree
	// ids lists every assigned member in join order (member i lives on
	// host i+1): the first n joined before the interval, the rest join
	// during it.
	ids []ident.ID
	n   int
}

// newChurnGroup assigns IDs to n + joins hosts and joins them all to the
// directory (the post-interval membership, leavers still aboard). The
// zero assign.Config and K pick the paper's defaults.
func newChurnGroup(ac assign.Config, k int, seed int64, n, joins int, treeSeed string) (*churnGroup, error) {
	if n < 2 {
		return nil, fmt.Errorf("exp: N must be >= 2, got %d", n)
	}
	if ac.Params == (ident.Params{}) {
		ac = assign.DefaultConfig()
	}
	if k == 0 {
		k = 4
	}
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), n+joins+1, seed)
	if err != nil {
		return nil, err
	}
	g := &churnGroup{net: net, rng: rand.New(rand.NewSource(seed)), n: n}
	if g.dir, err = overlay.NewDirectory(ac.Params, k, net, 0); err != nil {
		return nil, err
	}
	assigner, err := assign.New(ac, g.dir, g.rng)
	if err != nil {
		return nil, err
	}
	if g.tree, err = keytree.New(ac.Params, []byte(treeSeed), keytree.Opts{}); err != nil {
		return nil, err
	}
	for i := 0; i < n+joins; i++ {
		host := vnet.HostID(i + 1)
		id, _, err := assigner.AssignID(host)
		if err != nil {
			return nil, err
		}
		if err := g.dir.Join(overlay.Record{Host: host, ID: id, JoinTime: time.Duration(i)}); err != nil {
			return nil, err
		}
		g.ids = append(g.ids, id)
	}
	return g, nil
}

// churn runs the group's one rekey interval: the first n IDs are the
// tree's initial batch, then the remaining IDs join while `leaves`
// random initial members leave — the key tree and every directory in
// dirs (the group's own is always included). It returns the interval's
// rekey message.
func (g *churnGroup) churn(leaves int, dirs ...*overlay.Directory) (*keytree.Message, error) {
	if leaves > g.n {
		return nil, fmt.Errorf("exp: leaves %d exceed N %d", leaves, g.n)
	}
	if _, err := g.tree.Batch(g.ids[:g.n], nil); err != nil {
		return nil, err
	}
	leavers := make([]ident.ID, leaves)
	for i, p := range g.rng.Perm(g.n)[:leaves] {
		leavers[i] = g.ids[p]
	}
	msg, err := g.tree.Batch(g.ids[g.n:], leavers)
	if err != nil {
		return nil, err
	}
	for _, dir := range append(dirs, g.dir) {
		for _, id := range leavers {
			if err := dir.Leave(id); err != nil {
				return nil, err
			}
		}
	}
	return msg, nil
}
