package rekeyd

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/transport"
	"tmesh/internal/vnet"
)

// WorldConfig assembles a full daemon world: one key server plus many
// in-process member nodes over a chosen transport kind.
type WorldConfig struct {
	Params ident.Params
	K      int
	Seed   int64
	// InitialMembers joins before the first interval.
	InitialMembers int
	// Transport picks the fabric: "loopback", "udp", or "tcp".
	Transport string
	// Listen is the bind address for socket transports (udp, tcp).
	// Every node binds its own socket, so the port should be 0
	// (ephemeral). Empty means 127.0.0.1:0.
	Listen string
	// Ladder tunes the server's delivery ladder (Params is overridden
	// from this config).
	Ladder Config
	// Queue bounds every endpoint's send queue; 0 means the transport
	// default.
	Queue int
	// HostBudget is the extra host headroom for joins beyond the
	// initial membership; 0 means 256.
	HostBudget int
	// Obs receives node and ladder counters (nil-safe).
	Obs *obs.Registry
}

func (c *WorldConfig) fill() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.K < 1 {
		c.K = 3
	}
	if c.InitialMembers < 1 {
		return fmt.Errorf("rekeyd: need at least one initial member")
	}
	switch c.Transport {
	case "loopback", "udp", "tcp":
	case "":
		c.Transport = "loopback"
	default:
		return fmt.Errorf("rekeyd: unknown transport %q (want loopback, udp, or tcp)", c.Transport)
	}
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.HostBudget <= 0 {
		c.HostBudget = 256
	}
	c.Ladder.Params = c.Params
	c.Ladder.Obs = c.Obs
	return nil
}

// World owns a running daemon: the shared directory and key tree, the
// server node, every member node, and the fault plan threaded through
// all their transports. The driver methods (Join, Leave, Crash, Kill,
// Restore, Rekey) are single-goroutine: call them from one place while
// the nodes churn concurrently underneath.
type World struct {
	cfg  WorldConfig
	sh   *Shared
	tree *keytree.Tree
	srv  *Server
	sw   *transport.Switch
	plan *transport.FaultPlan

	members map[string]*Member

	// joining holds the directory records of the joiners queued in
	// pending; leaves, crash evictions and cancellation live in pending.
	joining []overlay.Record
	pending keytree.Pending

	// Hosts 1..lastHost exist in the topology (0 is the server's); the
	// first nextHost-1 have been handed to joiners.
	nextHost, lastHost vnet.HostID
	idRNG              *rand.Rand
	joinSeq            int64
}

// NewWorld builds the topology, directory, tree, server, and the
// initial membership, then runs interval 1 so every node starts with
// installed keys.
func NewWorld(cfg WorldConfig) (*World, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	totalHosts := 1 + cfg.InitialMembers + cfg.HostBudget
	top, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), totalHosts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dir, err := overlay.NewDirectory(cfg.Params, cfg.K, top, 0)
	if err != nil {
		return nil, err
	}
	tree, err := keytree.New(cfg.Params, []byte(fmt.Sprintf("rekeyd-%d", cfg.Seed)), keytree.Opts{RealCrypto: true, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	w := &World{
		cfg:     cfg,
		sh:      NewShared(dir),
		tree:    tree,
		sw:      transport.NewSwitch(),
		plan:    transport.NewFaultPlan(cfg.Seed),
		members: make(map[string]*Member),
		idRNG:   rand.New(rand.NewSource(cfg.Seed ^ 0x696473)), // "ids"

		nextHost: 1,
		lastHost: vnet.HostID(totalHosts - 1),
	}
	w.sh.SetAlive(func(id ident.ID) bool {
		return !w.plan.Killed(PeerOf(id))
	})

	srvTr, err := w.newEndpoint(transport.ServerID)
	if err != nil {
		return nil, err
	}
	srv, err := NewServer(cfg.Ladder, srvTr, w.sh, tree)
	if err != nil {
		srvTr.Close()
		return nil, err
	}
	w.srv = srv

	for i := 0; i < cfg.InitialMembers; i++ {
		if _, err := w.Join(); err != nil {
			w.Close()
			return nil, err
		}
	}
	if _, err := w.Rekey(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// newEndpoint builds one transport endpoint of the configured kind,
// wrapped in the shared fault plan.
func (w *World) newEndpoint(id transport.PeerID) (transport.Transport, error) {
	cfg := transport.Config{ID: id, Queue: w.cfg.Queue, Obs: w.cfg.Obs, Faults: w.plan}
	var inner transport.Transport
	var err error
	switch w.cfg.Transport {
	case "loopback":
		inner, err = transport.NewLoopback(w.sw, cfg)
	case "udp":
		inner, err = transport.NewUDP(w.cfg.Listen, cfg)
	case "tcp":
		inner, err = transport.NewTCP(w.cfg.Listen, cfg)
	}
	if err != nil {
		return nil, err
	}
	return transport.WithFaults(inner, w.plan, w.cfg.Obs), nil
}

// FaultPlan exposes the shared fault schedule for chaos drivers.
func (w *World) FaultPlan() *transport.FaultPlan { return w.plan }

// Shared exposes the node-shared state (directory access for audits).
func (w *World) Shared() *Shared { return w.sh }

// Tree exposes the server key tree (audits read GroupKey/Interval).
func (w *World) Tree() *keytree.Tree { return w.tree }

// Server exposes the server node.
func (w *World) Server() *Server { return w.srv }

// Members returns the live member nodes sorted by ID.
func (w *World) Members() []*Member {
	out := make([]*Member, 0, len(w.members))
	for _, m := range w.members {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b *Member) int { return a.id.Compare(b.id) })
	return out
}

// Member returns a node by ID.
func (w *World) Member(id ident.ID) (*Member, bool) {
	m, ok := w.members[id.Key()]
	return m, ok
}

// Size returns the current member count (pending churn excluded).
func (w *World) Size() int { return len(w.members) }

// joiningAt returns the index of id's queued join record, -1 if none.
func (w *World) joiningAt(id ident.ID) int {
	return slices.IndexFunc(w.joining, func(rec overlay.Record) bool { return rec.ID.Equal(id) })
}

// Join schedules a new member for the next Rekey and returns its ID.
func (w *World) Join() (ident.ID, error) {
	if w.nextHost > w.lastHost {
		return ident.ID{}, fmt.Errorf("rekeyd: host budget exhausted")
	}
	id, err := ident.FreeID(w.cfg.Params, w.idRNG, func(id ident.ID) bool {
		_, member := w.members[id.Key()]
		return member || w.joiningAt(id) >= 0
	})
	if err != nil {
		return ident.ID{}, err
	}
	w.joinSeq++
	w.joining = append(w.joining, overlay.Record{Host: w.nextHost, ID: id, JoinTime: time.Duration(w.joinSeq)})
	w.nextHost++
	w.pending.Join(id)
	return id, nil
}

// depart queues id's departure for the next Rekey. A joiner of this
// same interval cancels out instead (no node was ever brought up for
// it), reported as cancelled.
func (w *World) depart(id ident.ID) (cancelled bool, err error) {
	if i := w.joiningAt(id); i >= 0 {
		w.joining = slices.Delete(w.joining, i, i+1)
	} else if _, ok := w.members[id.Key()]; !ok {
		return false, fmt.Errorf("rekeyd: %v is not a member", id)
	}
	return w.pending.Leave(id), nil
}

// Leave schedules a graceful departure for the next Rekey.
func (w *World) Leave(id ident.ID) error {
	_, err := w.depart(id)
	return err
}

// Crash kills a member immediately (frames to and from it drop) and
// schedules its eviction at the next Rekey — the failure-recovery path: a
// leaver that is dark at the boundary is evicted, not released.
func (w *World) Crash(id ident.ID) error {
	cancelled, err := w.depart(id)
	if err == nil && !cancelled {
		w.plan.Kill(PeerOf(id))
	}
	return err
}

// Kill cuts a member's traffic without evicting it — a transient
// outage the recovery ladder must ride out once Restore is called.
// Unlike the other driver methods it may be called from a second
// goroutine — killing and restoring peers mid-interval, while Rekey's
// ladder is in flight, is exactly the acceptance scenario.
func (w *World) Kill(id ident.ID) {
	w.plan.Kill(PeerOf(id))
}

// Restore lifts a Kill. Safe to call concurrently with Rekey, like Kill.
func (w *World) Restore(id ident.ID) {
	w.plan.Restore(PeerOf(id))
}

// IsKilled reports whether a member is currently dark (killed or
// crashed-and-unreaped). It consults the mutex-guarded fault plan —
// the same oracle the directory's liveness checks use — so auditors
// may call it while a ladder is in flight.
func (w *World) IsKilled(id ident.ID) bool { return w.plan.Killed(PeerOf(id)) }

// addMember spins up the node for a directory record: endpoint, path
// keys from the (already regenerated) tree, server ↔ joiner
// registration, and the joiner's locator published for whoever comes to
// forward to it. (IDs route; locators are just where they live.)
func (w *World) addMember(rec overlay.Record, appliedInterval uint64) error {
	kr, err := w.tree.JoinKeyring(rec.ID)
	if err != nil {
		return err
	}
	tr, err := w.newEndpoint(PeerOf(rec.ID))
	if err != nil {
		return err
	}
	// Joiner side first: a failure leaves nothing behind at the server.
	if err = tr.AddPeer(transport.ServerID, w.srv.tr.Addr()); err == nil {
		err = w.srv.tr.AddPeer(PeerOf(rec.ID), tr.Addr())
	}
	if err != nil {
		tr.Close()
		return err
	}
	w.sh.publish(tr)
	w.members[rec.ID.Key()] = NewMember(rec.ID, w.cfg.Params, tr, w.sh, kr, appliedInterval, w.cfg.Obs)
	return nil
}

// dropMember tears a node down, withdraws its locator (which
// un-registers it wherever a forwarder resolved it) and un-registers it
// at the server.
func (w *World) dropMember(id ident.ID) {
	key := id.Key()
	m, ok := w.members[key]
	if !ok {
		return
	}
	delete(w.members, key)
	// Lift any standing Kill: the peer ID dies with the member, and a
	// future joiner that happens to draw the same ID must not inherit
	// the blackout.
	w.plan.Restore(PeerOf(id))
	m.Close() // first: a closed endpoint resolves nothing new
	w.sh.withdraw(PeerOf(id))
	w.srv.tr.RemovePeer(PeerOf(id))
}

// Rekey integrates the pending churn (joins, leaves, crash evictions),
// regenerates the key tree, brings up joiner nodes with their path
// keys (the reliable join unicast), and distributes the interval's
// message to every member over the transport, ladder included.
func (w *World) Rekey() (*Result, error) {
	msg, _, leaves, err := w.tree.Flush(&w.pending, 0)
	if err != nil {
		return nil, err
	}
	joining := w.joining
	w.joining = nil
	w.sh.Write(func(dir *overlay.Directory) {
		for _, rec := range joining {
			err = errors.Join(err, dir.Join(rec))
		}
		for _, id := range leaves {
			if !w.plan.Killed(PeerOf(id)) {
				err = errors.Join(err, dir.Leave(id))
				continue
			}
			// A crash is an eviction plus one repair per holder: Evict
			// leaves the dead user in surviving owners' tables on purpose
			// (each owner's failure detector is the one that notices), so
			// the world plays that detection step here and the directory
			// is k-consistent again before the interval's forwarding
			// reads it.
			err = errors.Join(err, dir.Evict(id))
			for _, owner := range dir.Holders(id) {
				dir.Repair(owner, id, w.sh.alive)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, id := range leaves {
		w.dropMember(id)
	}

	// Joiners get interval-i keys out of band; the interval-i message
	// wraps new keys under old ones they never held, so they start at
	// appliedInterval = msg.Interval and simply re-ack their copies.
	for _, rec := range joining {
		if err := w.addMember(rec, msg.Interval); err != nil {
			return nil, err
		}
	}

	expected := make([]ident.ID, 0, len(w.members))
	for _, m := range w.Members() {
		expected = append(expected, m.id)
	}
	return w.srv.Distribute(msg, expected)
}

// Close tears down every node. Safe to call twice.
func (w *World) Close() error {
	for _, m := range w.members {
		m.Close()
	}
	w.members = make(map[string]*Member)
	if w.srv != nil {
		w.srv.Close()
	}
	return nil
}
