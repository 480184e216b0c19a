// Package core integrates the paper's components into a complete secure
// group communication system: the key server (ID assignment, modified
// key tree, batch rekeying), the users (neighbor tables, keyrings), and
// the transport (T-mesh multicast with rekey message splitting).
//
// A Group is driven like the real system: users join (the distributed ID
// assignment runs, the directory admits them), users leave, and at the
// end of each rekey interval ProcessInterval generates the batch rekey
// message, which DistributeRekey multicasts with per-encryption
// splitting; every user's keyring is updated from exactly the
// encryptions the splitting scheme delivered to it. Data transport
// (group-key encrypted application multicast) runs concurrently over the
// same neighbor tables.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/cluster"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// Config assembles a Group.
type Config struct {
	// Net is the underlying network; required.
	Net vnet.Network
	// ServerHost is the key server's attachment point.
	ServerHost vnet.HostID
	// Assign holds the ID-space and assignment parameters; zero value
	// defaults to the paper's (D=5, B=256, R=(150,30,9,3) ms, F=90,
	// P=10).
	Assign assign.Config
	// K is the neighbor-table redundancy; zero defaults to the paper's
	// K=4.
	K int
	// Seed drives all randomness (ID assignment choices, key material).
	Seed int64
	// ClusterRekeying enables the Appendix B heuristic: the key tree
	// holds bottom-cluster leaders only.
	ClusterRekeying bool
	// Obs is the optional telemetry registry: per-stage spans
	// (regen/deliver/apply) and pipeline counters land there. Nil
	// (the default) disables all instrumentation at no cost. Telemetry
	// never feeds into rekey messages, reports, or member state, so
	// seed-identical runs are byte-identical with it on or off. It also
	// tags the pipeline stages with pprof labels (obs.WithStage).
	Obs *obs.Registry
}

// Group is one secure multicast group. Drive it from a single goroutine
// (or the event simulator); the rekey pipeline fans its crypto and
// compile stages out through work.Run internally but returns with all
// workers joined, and its messages, reports and member state are
// byte-identical at any width.
type Group struct {
	cfg      Config
	dir      *overlay.Directory
	assigner *assign.Assigner
	tree     *keytree.Tree
	clusters *cluster.Manager
	rng      *rand.Rand

	pending keytree.Pending // key-tree churn since the last boundary (non-cluster mode)

	// members holds per-user client state (keyring + believed group
	// key); in cluster mode only leaders keep full keyrings.
	members *memberstate.Store

	intervals       int
	keyringRebuilds int
}

// NewGroup validates the configuration and creates an empty group.
func NewGroup(cfg Config) (*Group, error) {
	if cfg.Net == nil {
		return nil, errors.New("core: Config.Net is required")
	}
	if cfg.Assign.Params == (ident.Params{}) {
		cfg.Assign = assign.DefaultConfig()
	}
	if err := cfg.Assign.Validate(); err != nil {
		return nil, err
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", cfg.K)
	}

	dir, err := overlay.NewDirectory(cfg.Assign.Params, cfg.K, cfg.Net, cfg.ServerHost)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	assigner, err := assign.New(cfg.Assign, dir, rng)
	if err != nil {
		return nil, err
	}
	g := &Group{
		cfg:      cfg,
		dir:      dir,
		assigner: assigner,
		rng:      rng,
		members:  memberstate.NewStore(),
	}
	seed := []byte(fmt.Sprintf("group-seed-%d", cfg.Seed))
	opts := keytree.Opts{Obs: cfg.Obs}
	if cfg.ClusterRekeying {
		g.clusters, err = cluster.New(cfg.Assign.Params, seed, opts)
	} else {
		g.tree, err = keytree.New(cfg.Assign.Params, seed, opts)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Dir exposes the membership directory (read-only use).
func (g *Group) Dir() *overlay.Directory { return g.dir }

// Size returns the current number of users.
func (g *Group) Size() int { return g.dir.Size() }

// Intervals returns the number of rekey intervals processed.
func (g *Group) Intervals() int { return g.intervals }

// Params returns the ID-space parameters.
func (g *Group) Params() ident.Params { return g.cfg.Assign.Params }

// Join runs the distributed ID assignment for a new user at the given
// host, admits it to the overlay, and queues its key-tree join for the
// current rekey interval. The at time stamps the record's JoinTime (used
// by the cluster heuristic's leader election).
func (g *Group) Join(host vnet.HostID, at time.Duration) (ident.ID, assign.Stats, error) {
	rec, stats, err := g.assigner.Join(host, at)
	if err != nil {
		return ident.ID{}, stats, err
	}
	if g.clusters != nil {
		if err := g.clusters.Join(rec); err != nil {
			return ident.ID{}, stats, err
		}
	} else {
		g.pending.Join(rec.ID)
	}
	return rec.ID, stats, nil
}

// Leave removes a user and queues its key-tree departure (see
// keytree.Pending for a leave that meets its own pending join).
func (g *Group) Leave(id ident.ID) error {
	if err := g.dir.Leave(id); err != nil {
		return err
	}
	g.members.Remove(id)
	if g.clusters != nil {
		return g.clusters.Leave(id)
	}
	g.pending.Leave(id)
	return nil
}

// ProcessInterval ends the current rekey interval: the batched joins and
// leaves are applied to the key tree (pipeline stages mark + regen) and
// the rekey message generated. Newly joined users receive their path
// keys (the server's join-time unicast).
func (g *Group) ProcessInterval() (*keytree.Message, error) {
	g.intervals++
	span := g.cfg.Obs.StartSpan("core_regen") // the server-side stage: mark + regen
	tree, msg, joins, err := g.flush()
	span.End()
	if err != nil {
		return nil, err
	}
	for _, id := range joins {
		if err := g.initKeyring(tree, id); err != nil {
			return nil, err
		}
	}
	return msg, nil
}

// flush ends the interval on the tree the mode keys and returns it with
// the message and the joiners to key. In cluster mode those are only the
// leaders that just entered the leaders-only tree: incumbent leaders
// advance by applying the rekey message the multicast delivers to them,
// exactly like users in non-cluster mode, so the per-interval cost is
// proportional to leader churn, not to the number of leaders.
func (g *Group) flush() (*keytree.Tree, *keytree.Message, []ident.ID, error) {
	if g.clusters != nil {
		res, err := g.clusters.Process()
		if err != nil {
			return nil, nil, nil, err
		}
		return g.clusters.Tree(), res.Message, res.Joins, nil
	}
	msg, joins, _, err := g.tree.Flush(&g.pending, 0)
	return g.tree, msg, joins, err
}

func (g *Group) initKeyring(tree *keytree.Tree, id ident.ID) error {
	kr, err := tree.JoinKeyring(id)
	if err != nil {
		return err
	}
	g.keyringRebuilds++
	g.members.PutKeyring(id, kr)
	if gk, ok := kr.GroupKey(); ok {
		g.members.SetGroupKey(id, gk)
	}
	return nil
}

// DistributeRekey runs the pipeline's delivery and apply stages: the
// rekey message is multicast over the T-mesh split per encryption
// (each hop's share cut from the payload it received by
// split.AppendShare), then every delivered user's keyring applies
// exactly the encryptions the splitting scheme handed it, fanned out
// across delivered users. Delivered slices alias the session's share
// arena and are treated as read-only throughout. Apply
// failures are collected and reported together, sorted by user ID
// (*ApplyError). In cluster mode, the Appendix B last hop follows:
// every member is handed the server's group key (distributeViaLeaders).
func (g *Group) DistributeRekey(msg *keytree.Message) (*split.Report, error) {
	if msg == nil {
		return nil, errors.New("core: nil rekey message")
	}
	// Deliveries are collected rather than applied in-line: the
	// transport's callback runs on the simulator's critical path, and
	// applying there would also mean mutating member state from whatever
	// goroutine the transport runs on. Collection is cheap; apply then
	// fans out below.
	opts := split.Options{
		Mode:    split.PerEncryption,
		Collect: true,
		Obs:     g.cfg.Obs,
	}
	if g.clusters != nil {
		// Footnote 8: route rekey hops of the bottom row to the
		// earliest-joined neighbors, i.e. the cluster leaders.
		opts.EarliestPrimaryRow = g.Params().Digits - 2
	}
	deliverSpan := g.cfg.Obs.StartSpan("core_deliver")
	var rep *split.Report
	var err error
	obs.WithStage(g.cfg.Obs, "deliver", func() {
		rep, err = split.Rekey(g.dir, msg, opts)
	})
	deliverSpan.End()
	if err != nil {
		return nil, err
	}
	applier := &storeApplier{store: g.members, obs: g.cfg.Obs}
	applySpan := g.cfg.Obs.StartSpan("core_apply")
	err = applier.Apply(msg.Interval, rep.Deliveries)
	applySpan.End()
	if err != nil {
		return nil, err
	}
	if g.clusters != nil {
		g.distributeViaLeaders()
	}
	return rep, nil
}

// distributeViaLeaders models the Appendix B last hop, in which every
// leader unicasts the new group key to its cluster members: the hop is
// counted (cluster.Result.PairwiseUnicasts), not wrapped, so the
// server's group key is copied into every member's store.
func (g *Group) distributeViaLeaders() {
	tree := g.clusters.Tree()
	gk, ok := tree.GroupKey()
	if !ok {
		return
	}
	for _, rec := range g.dir.Members(ident.EmptyPrefix) {
		g.members.SetGroupKey(rec.ID, gk)
	}
}

// GroupKeyOf returns the group key a user currently holds.
func (g *Group) GroupKeyOf(id ident.ID) (keycrypt.Key, bool) {
	return g.members.GroupKey(id)
}

// ServerGroupKey returns the key server's current group key.
func (g *Group) ServerGroupKey() (keycrypt.Key, bool) {
	if g.clusters != nil {
		return g.clusters.Tree().GroupKey()
	}
	return g.tree.GroupKey()
}

// KeyringOf returns a user's keyring (in cluster mode, leaders only).
func (g *Group) KeyringOf(id ident.ID) (*keytree.Keyring, bool) {
	kr := g.members.Keyring(id)
	return kr, kr != nil
}

// Members exposes the sharded member-state store (keyrings and believed
// group keys) the apply stage writes into.
func (g *Group) Members() *memberstate.Store { return g.members }

// Clusters exposes the cluster manager in cluster-rekeying mode.
func (g *Group) Clusters() *cluster.Manager { return g.clusters }

// Tree exposes the key tree (nil in cluster mode; use Clusters().Tree()).
func (g *Group) Tree() *keytree.Tree { return g.tree }

// MulticastData sends a data payload of the given size (in abstract
// units) from a user over the T-mesh and returns the session metrics.
func (g *Group) MulticastData(sender ident.ID, units int) (*tmesh.Result, error) {
	return tmesh.Multicast(tmesh.Config[int]{
		Dir:      g.dir,
		SenderID: sender,
		SizeOf:   func(u int) int { return u },
	}, units)
}

// SealForGroup encrypts application data with the server's current group
// key.
func (g *Group) SealForGroup(plaintext []byte) ([]byte, error) {
	gk, ok := g.ServerGroupKey()
	if !ok {
		return nil, errors.New("core: group is empty, no group key")
	}
	return keycrypt.Seal(gk, plaintext)
}

// OpenAsUser decrypts application data with the group key held by a
// specific user.
func (g *Group) OpenAsUser(id ident.ID, sealed []byte) ([]byte, error) {
	gk, ok := g.GroupKeyOf(id)
	if !ok {
		return nil, fmt.Errorf("core: user %v holds no group key", id)
	}
	return keycrypt.Open(gk, sealed)
}
