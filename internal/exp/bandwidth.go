package exp

import (
	"fmt"
	"math/rand"

	"tmesh/internal/assign"
	"tmesh/internal/cluster"
	"tmesh/internal/ident"
	"tmesh/internal/ipmc"
	"tmesh/internal/keytree"
	"tmesh/internal/lkh"
	"tmesh/internal/metrics"
	"tmesh/internal/nice"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
)

// Protocol names the seven rekey transport protocols of Table 2.
type Protocol string

const (
	// P0: original key tree over NICE, no splitting.
	P0 Protocol = "P0"
	// P0S is P0' in the paper: original key tree over NICE with
	// downstream-state splitting.
	P0S Protocol = "P0'"
	// P1: modified key tree over T-mesh, no splitting.
	P1 Protocol = "P1"
	// P1S is P1': modified key tree over T-mesh with rekey message
	// splitting.
	P1S Protocol = "P1'"
	// P3: modified tree + cluster rekeying over T-mesh, no splitting.
	P3 Protocol = "P3"
	// P3S is P3': cluster rekeying with splitting.
	P3S Protocol = "P3'"
	// Pip: original key tree over DVMRP-style IP multicast.
	Pip Protocol = "Pip"
)

// AllProtocols lists Table 2 in presentation order.
func AllProtocols() []Protocol {
	return []Protocol{P0, P0S, P1, P1S, P3, P3S, Pip}
}

// BandwidthConfig drives Fig. 13: 1024 users join, then ChurnJoins joins
// and ChurnLeaves leaves are processed in one rekey interval, and the
// resulting rekey message is distributed under each protocol.
type BandwidthConfig struct {
	N           int
	ChurnJoins  int
	ChurnLeaves int
	// Assign configures the ID space; zero value = paper defaults.
	Assign assign.Config
	// K is the neighbor table redundancy (paper: 4).
	K    int
	Seed int64
	// Protocols restricts the run; empty = all seven.
	Protocols []Protocol
	// Progress, when non-nil, receives each protocol's index (in
	// Protocols order) and wall-clock duration as it completes.
	Progress Progress
}

// BandwidthReport is one protocol's Fig. 13 data.
type BandwidthReport struct {
	Protocol Protocol
	// RekeyCost is the number of encryptions in this protocol's rekey
	// message (the key trees differ).
	RekeyCost int
	// Received is the distribution of encryptions received per user
	// (Fig. 13 (a)).
	Received *metrics.Distribution
	// Forwarded is the distribution of encryptions forwarded per user
	// (Fig. 13 (b)).
	Forwarded *metrics.Distribution
	// PerLink is the distribution of encryptions per physical link
	// over all links of the topology (Fig. 13 (c)).
	PerLink *metrics.Distribution
}

// RunBandwidth executes Fig. 13 once (the paper plots "a typical
// simulation run").
func RunBandwidth(cfg BandwidthConfig) ([]BandwidthReport, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("exp: N must be >= 2, got %d", cfg.N)
	}
	if cfg.ChurnLeaves > cfg.N {
		return nil, fmt.Errorf("exp: churn leaves %d exceed N %d", cfg.ChurnLeaves, cfg.N)
	}
	protocols := cfg.Protocols
	if len(protocols) == 0 {
		protocols = AllProtocols()
	}

	w, err := buildBandwidthWorld(cfg)
	if err != nil {
		return nil, err
	}
	// The world is fully built at this point and only read below: every
	// protocol measurement allocates its own report maps, so protocols
	// can run concurrently.
	reports := make([]BandwidthReport, len(protocols))
	err = forEachUnit(len(protocols), cfg.Progress, func(i int) error {
		rep, err := w.run(protocols[i])
		if err != nil {
			return fmt.Errorf("exp: protocol %s: %w", protocols[i], err)
		}
		reports[i] = *rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reports, nil
}

// bwWorld holds the post-churn state shared by all protocol runs.
type bwWorld struct {
	// T-mesh side (protocols P1, P1', P3, P3'), whose network the
	// NICE side shares.
	*world
	liveIDs []ident.ID
	modMsg  *keytree.Message // modified key tree rekey message
	cm      *cluster.Manager
	clusMsg *keytree.Message // leaders-only rekey message

	// NICE / IP multicast side (P0, P0', Pip): same hosts, original
	// key tree. It keeps its own code: neither places users by ID.
	np       *nice.Protocol
	origMsg  *lkh.Message
	origTree *lkh.Tree
	pathSets map[vnet.HostID]map[int]bool // host -> key-path node IDs
	liveHost []vnet.HostID
}

func buildBandwidthWorld(cfg BandwidthConfig) (*bwWorld, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	totalHosts := cfg.N + cfg.ChurnJoins + 1
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), totalHosts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tw, err := newWorld(net, rng, cfg.Assign, cfg.K)
	if err != nil {
		return nil, err
	}
	w := &bwWorld{world: tw}

	// --- T-mesh world: initial joins, then one churn interval. The
	// cluster manager admits every member the directory does.
	params := w.dir.Params()
	mtree, err := keytree.New(params, []byte("bw"), keytree.Opts{})
	if err != nil {
		return nil, err
	}
	w.cm, err = cluster.New(params, []byte("bw"), keytree.Opts{})
	if err != nil {
		return nil, err
	}
	admit := func(n int) ([]overlay.Record, error) {
		if err := w.grow(n); err != nil {
			return nil, err
		}
		recs := w.recs[len(w.recs)-n:]
		for _, rec := range recs {
			if err := w.cm.Join(rec); err != nil {
				return nil, err
			}
		}
		return recs, nil
	}
	baseRecs, err := admit(cfg.N)
	if err != nil {
		return nil, err
	}
	baseIDs := idsOf(baseRecs)
	if _, err := mtree.Batch(baseIDs, nil); err != nil {
		return nil, err
	}
	if _, err := w.cm.Process(); err != nil {
		return nil, err
	}

	// Churn interval.
	leaverIdx := rng.Perm(cfg.N)[:cfg.ChurnLeaves]
	leavers := make([]ident.ID, cfg.ChurnLeaves)
	leaverSet := make(map[int]bool, cfg.ChurnLeaves)
	for i, p := range leaverIdx {
		leavers[i] = baseIDs[p]
		leaverSet[p] = true
	}
	joinRecs, err := admit(cfg.ChurnJoins)
	if err != nil {
		return nil, err
	}
	for _, id := range leavers {
		if err := w.dir.Leave(id); err != nil {
			return nil, err
		}
		if err := w.cm.Leave(id); err != nil {
			return nil, err
		}
	}
	w.modMsg, err = mtree.Batch(idsOf(joinRecs), leavers)
	if err != nil {
		return nil, err
	}
	cres, err := w.cm.Process()
	if err != nil {
		return nil, err
	}
	w.clusMsg = cres.Message
	for i, r := range baseRecs {
		if !leaverSet[i] {
			w.liveIDs = append(w.liveIDs, r.ID)
			w.liveHost = append(w.liveHost, r.Host)
		}
	}
	for _, r := range joinRecs {
		w.liveIDs = append(w.liveIDs, r.ID)
		w.liveHost = append(w.liveHost, r.Host)
	}

	// --- NICE world with the original key tree (same hosts, same churn).
	w.np, err = nice.New(net, nice.DefaultK)
	if err != nil {
		return nil, err
	}
	var handles []lkh.UserHandle
	w.origTree, handles, err = lkh.NewFullBalanced(4, cfg.N)
	if err != nil {
		return nil, err
	}
	hostOf := make(map[lkh.UserHandle]vnet.HostID, cfg.N)
	for i := 0; i < cfg.N; i++ {
		h := vnet.HostID(i + 1)
		if err := w.np.Join(h); err != nil {
			return nil, err
		}
		hostOf[handles[i]] = h
	}
	var origLeave []lkh.UserHandle
	for _, p := range leaverIdx {
		origLeave = append(origLeave, handles[p])
	}
	var newHandles []lkh.UserHandle
	w.origMsg, newHandles, err = w.origTree.Batch(cfg.ChurnJoins, origLeave)
	if err != nil {
		return nil, err
	}
	for i, h := range newHandles {
		host := vnet.HostID(cfg.N + 1 + i)
		if err := w.np.Join(host); err != nil {
			return nil, err
		}
		hostOf[h] = host
	}
	for _, p := range leaverIdx {
		if err := w.np.Leave(vnet.HostID(p + 1)); err != nil {
			return nil, err
		}
	}
	// Per-host key-path sets for P0' splitting and received-set sizing.
	w.pathSets = make(map[vnet.HostID]map[int]bool, len(w.origTree.Users()))
	for _, u := range w.origTree.Users() {
		host, ok := hostOf[u]
		if !ok {
			continue
		}
		path, err := w.origTree.PathNodeIDs(u)
		if err != nil {
			return nil, err
		}
		set := make(map[int]bool, len(path))
		for _, id := range path {
			set[id] = true
		}
		w.pathSets[host] = set
	}
	return w, nil
}

// neededUnits counts the encryptions of the original-tree message needed
// by at least one of the given hosts (an encryption is needed by a user
// iff both its child and parent nodes lie on the user's key path).
func (w *bwWorld) neededUnits(hosts []vnet.HostID) int {
	n := 0
	for _, e := range w.origMsg.Encryptions {
		for _, h := range hosts {
			set := w.pathSets[h]
			if set != nil && set[e.Child] && set[e.Parent] {
				n++
				break
			}
		}
	}
	return n
}

func (w *bwWorld) run(p Protocol) (*BandwidthReport, error) {
	switch p {
	case P1, P1S, P3, P3S:
		return w.runTmesh(p)
	case P0, P0S:
		return w.runNICE(p)
	case Pip:
		return w.runIPMC()
	default:
		return nil, fmt.Errorf("unknown protocol %q", p)
	}
}

func (w *bwWorld) runTmesh(p Protocol) (*BandwidthReport, error) {
	msg := w.modMsg
	if p == P3 || p == P3S {
		msg = w.clusMsg
	}
	mode := split.NoSplit
	if p == P1S || p == P3S {
		mode = split.PerEncryption
	}
	rep, err := split.Rekey(w.dir, msg, split.Options{Mode: mode})
	if err != nil {
		return nil, err
	}
	out := &BandwidthReport{Protocol: p, RekeyCost: msg.Cost()}
	recv := make([]float64, 0, len(w.liveIDs))
	fwd := make([]float64, 0, len(w.liveIDs))
	for _, id := range w.liveIDs {
		recv = append(recv, float64(rep.ReceivedPerUser[id.Key()]))
		fwd = append(fwd, float64(rep.ForwardedPerUser[id.Key()]))
	}
	if p == P3 || p == P3S {
		// Appendix B last hop: each leader unicasts the new group key
		// to its cluster members (one encryption per member).
		w.addClusterUnicasts(&recv, &fwd, rep.LinkUnits)
	}
	out.Received = metrics.NewDistribution(recv)
	out.Forwarded = metrics.NewDistribution(fwd)
	out.PerLink = w.linkDistribution(rep.LinkUnits)
	return out, nil
}

// addClusterUnicasts accounts the leader-to-member pairwise unicasts of
// the cluster heuristic in the same units (encryptions).
func (w *bwWorld) addClusterUnicasts(recv, fwd *[]float64, linkUnits map[vnet.LinkID]int) {
	idx := make(map[string]int, len(w.liveIDs))
	for i, id := range w.liveIDs {
		idx[id.Key()] = i
	}
	var path []vnet.LinkID
	for i, id := range w.liveIDs {
		pfx := w.cm.ClusterOf(id)
		leader, ok := w.cm.Leader(pfx)
		if !ok || !leader.ID.Equal(id) {
			continue
		}
		for _, memberRec := range w.cm.Members(pfx) {
			if memberRec.ID.Equal(id) {
				continue
			}
			(*fwd)[i]++
			if j, ok := idx[memberRec.ID.Key()]; ok {
				(*recv)[j]++
			}
			path = w.net.AppendPathLinks(path[:0], leader.Host, memberRec.Host)
			for _, l := range path {
				linkUnits[l]++
			}
		}
	}
}

func (w *bwWorld) runNICE(p Protocol) (*BandwidthReport, error) {
	units := w.origMsg.Cost()
	opts := nice.Options{FromServer: true, ServerHost: 0, Units: units}
	if p == P0S {
		opts.UnitsFor = func(recv vnet.HostID, downstream []vnet.HostID) int {
			return w.neededUnits(downstream)
		}
	}
	res, err := w.np.Multicast(0, opts)
	if err != nil {
		return nil, err
	}
	out := &BandwidthReport{Protocol: p, RekeyCost: units}
	recv := make([]float64, 0, len(w.liveHost))
	fwd := make([]float64, 0, len(w.liveHost))
	for _, h := range w.liveHost {
		st := res.Members[h]
		if st == nil {
			st = &nice.Stats{}
		}
		recv = append(recv, float64(st.UnitsReceived))
		fwd = append(fwd, float64(st.UnitsForwarded))
	}
	out.Received = metrics.NewDistribution(recv)
	out.Forwarded = metrics.NewDistribution(fwd)
	out.PerLink = w.linkDistribution(res.LinkUnits)
	return out, nil
}

func (w *bwWorld) runIPMC() (*BandwidthReport, error) {
	units := w.origMsg.Cost()
	res, err := ipmc.Multicast(w.net, 0, w.liveHost, units)
	if err != nil {
		return nil, err
	}
	out := &BandwidthReport{Protocol: Pip, RekeyCost: units}
	recv := make([]float64, len(w.liveHost))
	fwd := make([]float64, len(w.liveHost))
	for i := range recv {
		recv[i] = float64(units) // every receiver gets the whole message
	}
	out.Received = metrics.NewDistribution(recv)
	out.Forwarded = metrics.NewDistribution(fwd)
	out.PerLink = w.linkDistribution(res.LinkUnits)
	return out, nil
}

// linkDistribution spreads the per-link unit counts over all physical
// links of the topology (links that carried nothing contribute zeros, as
// in Fig. 13 (c)'s x-axis over all 13000 links).
func (w *bwWorld) linkDistribution(units map[vnet.LinkID]int) *metrics.Distribution {
	all := make([]float64, w.net.NumLinks())
	for l, u := range units {
		all[l] = float64(u)
	}
	return metrics.NewDistribution(all)
}
