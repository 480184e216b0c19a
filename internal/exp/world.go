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

// world is the T-mesh world every figure measures: a network, a
// directory populated through the Section 3.1 protocol
// (assign.Assigner.Join), and the admitted records in admission order.
// It never seeds an RNG of its own: the assignment draws from the
// caller's, join by join, so each runner keeps its own draws where they
// fall between admissions and a seed still names one world.
type world struct {
	net      vnet.Network
	rng      *rand.Rand
	dir      *overlay.Directory
	assigner *assign.Assigner
	// recs lists the admitted records in admission order. undo takes
	// its own back out; churn's leavers stay listed.
	recs []overlay.Record
	// clock is the next JoinTime. Only the order of join times is ever
	// read (the cluster heuristic's earliest leader, footnote 8's
	// earliest primary neighbor), so one counter that only grows
	// stamps every admission, rolled-back ones included.
	clock time.Duration
}

// paperConfig fills the paper's defaults into a zero assign.Config
// (D = 5, B = 256, R = (150, 30, 9, 3) ms) and a zero K (4).
func paperConfig(ac assign.Config, k int) (assign.Config, int) {
	if ac.Params == (ident.Params{}) {
		ac = assign.DefaultConfig()
	}
	if k == 0 {
		k = 4
	}
	return ac, k
}

// newWorld builds an empty world over net whose key server is host 0.
// The zero assign.Config and K pick the paper's defaults.
func newWorld(net vnet.Network, rng *rand.Rand, ac assign.Config, k int) (*world, error) {
	ac, k = paperConfig(ac, k)
	dir, err := overlay.NewDirectory(ac.Params, k, net, 0)
	if err != nil {
		return nil, err
	}
	assigner, err := assign.New(ac, dir, rng)
	if err != nil {
		return nil, err
	}
	return &world{net: net, rng: rng, dir: dir, assigner: assigner}, nil
}

// join admits host.
func (w *world) join(host vnet.HostID) (overlay.Record, assign.Stats, error) {
	rec, st, err := w.assigner.Join(host, w.clock)
	if err != nil {
		return rec, st, fmt.Errorf("exp: assigning host %d: %w", host, err)
	}
	w.clock++
	w.recs = append(w.recs, rec)
	return rec, st, nil
}

// grow admits n fresh hosts: member i of the admission order lives on
// host i+1.
func (w *world) grow(n int) error {
	for ; n > 0; n-- {
		if _, _, err := w.join(vnet.HostID(len(w.recs) + 1)); err != nil {
			return err
		}
	}
	return nil
}

// undo takes the last n admissions back out of the directory, in
// admission order, so their hosts are fresh again.
func (w *world) undo(n int) error {
	keep := len(w.recs) - n
	for _, rec := range w.recs[keep:] {
		if err := w.dir.Leave(rec.ID); err != nil {
			return err
		}
	}
	w.recs = w.recs[:keep]
	return nil
}

// idsOf lists the records' IDs in order.
func idsOf(recs []overlay.Record) []ident.ID {
	ids := make([]ident.ID, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}

// newChurnWorld is the world the ablation, packet, loss and congestion
// runners measure: n + joins hosts on a GT-ITM topology, all admitted
// (the post-interval membership, leavers still aboard). Its RNG is
// seeded with seed and drawn in a fixed order (assignment probes per
// join, then whatever the runner draws, then churn's leavers), so a
// seed names one group.
func newChurnWorld(ac assign.Config, k int, seed int64, n, joins int) (*world, error) {
	if n < 2 {
		return nil, fmt.Errorf("exp: N must be >= 2, got %d", n)
	}
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), n+joins+1, seed)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(net, rand.New(rand.NewSource(seed)), ac, k)
	if err != nil {
		return nil, err
	}
	if err := w.grow(n + joins); err != nil {
		return nil, err
	}
	return w, nil
}

// churn runs a churn world's one rekey interval over a key tree seeded
// with treeSeed: the first n members are the tree's initial batch, then
// the rest join while `leaves` random initial members leave — the key
// tree and every directory in dirs (the world's own is always
// included). It returns the interval's rekey message.
func (w *world) churn(n, leaves int, treeSeed string, dirs ...*overlay.Directory) (*keytree.Message, error) {
	if leaves > n {
		return nil, fmt.Errorf("exp: leaves %d exceed N %d", leaves, n)
	}
	tree, err := keytree.New(w.dir.Params(), []byte(treeSeed), keytree.Opts{})
	if err != nil {
		return nil, err
	}
	ids := idsOf(w.recs)
	if _, err := tree.Batch(ids[:n], nil); err != nil {
		return nil, err
	}
	leavers := make([]ident.ID, leaves)
	for i, p := range w.rng.Perm(n)[:leaves] {
		leavers[i] = ids[p]
	}
	msg, err := tree.Batch(ids[n:], leavers)
	if err != nil {
		return nil, err
	}
	for _, dir := range append(dirs, w.dir) {
		for _, id := range leavers {
			if err := dir.Leave(id); err != nil {
				return nil, err
			}
		}
	}
	return msg, nil
}
