// Package nice implements the NICE application-layer multicast protocol
// of Banerjee, Bhattacharjee, and Kommareddy (SIGCOMM 2002), which the
// paper uses as its representative existing ALM scheme for comparison
// ("we simulate the NICE protocol based on its protocol description").
//
// NICE arranges members into a layered hierarchy of clusters. Layer 0
// contains every member, partitioned into clusters of size [k, 3k-1]
// (the paper's simulations use three to eight users, i.e. k = 3). Each
// cluster's leader is its graph-theoretic center — the member whose
// maximum distance to the rest of the cluster is minimal. The leaders of
// layer i form layer i+1, recursively, until a single top cluster
// remains; its leader is the root of the hierarchy.
//
// Joins are processed sequentially, as in the paper's simulations: a
// joining host descends from the top layer, at each layer probing the
// cluster's members and following the closest leader, and finally joins
// that leader's layer-0 cluster. Oversized clusters split into two
// (size-balanced, proximity-seeded); undersized clusters merge with the
// sibling whose leader is nearest. Leadership changes propagate to the
// layer above.
//
// Multicast follows the cluster topology: a member that receives a
// message from a peer in its layer-j cluster forwards it to its cluster
// peers in all layers below j; a source sends to its peers in every
// layer it belongs to. For rekey transport the paper has the key server
// unicast the message to the root first, then the message travels
// top-down.
package nice

import (
	"fmt"
	"sort"
	"time"

	"tmesh/internal/vnet"
)

// DefaultK is the paper's cluster parameter: sizes in [3, 8].
const DefaultK = 3

// Protocol is one NICE overlay instance. It is not safe for concurrent
// use.
type Protocol struct {
	k   int
	net vnet.Network

	top     *Cluster
	layer0  map[vnet.HostID]*Cluster // host -> its layer-0 cluster
	members map[vnet.HostID]bool
}

// Cluster is one cluster at some layer of the hierarchy.
type Cluster struct {
	layer   int
	members map[vnet.HostID]bool
	leader  vnet.HostID
	parent  *Cluster
	// children maps a member to the layer-(layer-1) cluster it leads;
	// nil at layer 0.
	children map[vnet.HostID]*Cluster
}

// New creates an empty NICE overlay over the network with cluster
// parameter k (sizes [k, 3k-1]). The protocol is deterministic: probes,
// centers, and splits depend only on the network's RTTs and the join
// order.
func New(net vnet.Network, k int) (*Protocol, error) {
	if net == nil {
		return nil, fmt.Errorf("nice: network is required")
	}
	if k < 2 {
		return nil, fmt.Errorf("nice: k must be >= 2, got %d", k)
	}
	return &Protocol{
		k:       k,
		net:     net,
		layer0:  make(map[vnet.HostID]*Cluster),
		members: make(map[vnet.HostID]bool),
	}, nil
}

// Size returns the number of members.
func (p *Protocol) Size() int { return len(p.members) }

func (p *Protocol) maxSize() int { return 3*p.k - 1 }

// Join adds a host, descending from the top layer to find the closest
// layer-0 cluster (probing cluster members along the way, as in the
// protocol).
func (p *Protocol) Join(h vnet.HostID) error {
	if p.members[h] {
		return fmt.Errorf("nice: duplicate join of host %d", h)
	}
	p.members[h] = true
	if p.top == nil {
		c := &Cluster{layer: 0, members: map[vnet.HostID]bool{h: true}, leader: h}
		p.top = c
		p.layer0[h] = c
		return nil
	}
	// Descend: at each layer pick the member closest to h and follow
	// its child cluster.
	c := p.top
	for c.layer > 0 {
		closest := p.closestMember(c, h)
		c = c.children[closest]
	}
	c.members[h] = true
	p.layer0[h] = c
	p.relead(c)
	p.checkSplit(c)
	return nil
}

// Leave removes a host, transferring any leadership it held and
// repairing undersized clusters.
func (p *Protocol) Leave(h vnet.HostID) error {
	if !p.members[h] {
		return fmt.Errorf("nice: leave of unknown host %d", h)
	}
	delete(p.members, h)
	c := p.layer0[h]
	delete(p.layer0, h)

	// Remove h bottom-up: if h led its cluster at some layer, the new
	// leader replaces h in the parent cluster.
	for c != nil {
		delete(c.members, h)
		wasLeader := c.leader == h
		parent := c.parent
		if len(c.members) == 0 {
			// The cluster dissolves entirely.
			if parent != nil {
				delete(parent.children, h)
				delete(parent.members, h)
				c = parent
				continue
			}
			p.top = nil
			return nil
		}
		if !wasLeader {
			p.checkMerge(c)
			return nil
		}
		newLeader := p.center(c)
		c.leader = newLeader
		if parent == nil {
			// h was the root; the hierarchy may now be collapsible.
			p.checkMerge(c)
			p.collapseTop()
			return nil
		}
		// Replace h by newLeader in the parent cluster.
		delete(parent.children, h)
		if parent.members[newLeader] {
			// The new leader already sat in the parent (it led a
			// sibling cluster) — impossible: a member leads exactly
			// one child. Guard anyway.
			parent.children[newLeader] = c
			delete(parent.members, h)
		} else {
			delete(parent.members, h)
			parent.members[newLeader] = true
			parent.children[newLeader] = c
		}
		p.checkMerge(c)
		c = parent
	}
	return nil
}

// closestMember returns the member of c with smallest RTT to h.
func (p *Protocol) closestMember(c *Cluster, h vnet.HostID) vnet.HostID {
	best := vnet.HostID(-1)
	var bestRTT time.Duration
	for m := range c.members {
		rtt := p.net.RTT(h, m)
		if best < 0 || rtt < bestRTT || (rtt == bestRTT && m < best) {
			best, bestRTT = m, rtt
		}
	}
	return best
}

// center returns the graph-theoretic center of the cluster: the member
// minimizing the maximum RTT to all other members (ties by host ID).
func (p *Protocol) center(c *Cluster) vnet.HostID {
	best := vnet.HostID(-1)
	var bestEcc time.Duration
	ids := sortedHosts(c.members)
	for _, m := range ids {
		var ecc time.Duration
		for _, o := range ids {
			if d := p.net.RTT(m, o); d > ecc {
				ecc = d
			}
		}
		if best < 0 || ecc < bestEcc {
			best, bestEcc = m, ecc
		}
	}
	return best
}

// relead re-elects the cluster center as leader and propagates the
// change to the parent layer.
func (p *Protocol) relead(c *Cluster) {
	newLeader := p.center(c)
	old := c.leader
	if newLeader == old {
		return
	}
	c.leader = newLeader
	if c.parent == nil {
		return
	}
	parent := c.parent
	delete(parent.members, old)
	delete(parent.children, old)
	parent.members[newLeader] = true
	parent.children[newLeader] = c
	p.relead(parent)
}

// checkSplit splits the cluster if it exceeds 3k-1 members.
func (p *Protocol) checkSplit(c *Cluster) {
	if len(c.members) <= p.maxSize() {
		return
	}
	ids := sortedHosts(c.members)
	// Seeds: the two members farthest apart.
	var s1, s2 vnet.HostID
	var worst time.Duration = -1
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if d := p.net.RTT(ids[i], ids[j]); d > worst {
				worst, s1, s2 = d, ids[i], ids[j]
			}
		}
	}
	// Balanced partition: order members by (d(s1) - d(s2)) and cut at
	// the median, so both halves stay >= k.
	sort.Slice(ids, func(a, b int) bool {
		da := p.net.RTT(ids[a], s1) - p.net.RTT(ids[a], s2)
		db := p.net.RTT(ids[b], s1) - p.net.RTT(ids[b], s2)
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	half := len(ids) / 2
	m1 := hostSet(ids[:half])
	m2 := hostSet(ids[half:])

	// c keeps m1; sibling gets m2.
	oldLeader := c.leader
	c.members = m1
	sib := &Cluster{layer: c.layer, members: m2, parent: c.parent}
	if c.layer > 0 {
		sibChildren := make(map[vnet.HostID]*Cluster)
		for h := range m2 {
			sibChildren[h] = c.children[h]
			c.children[h].parent = sib
			delete(c.children, h)
		}
		sib.children = sibChildren
	} else {
		for h := range m2 {
			p.layer0[h] = sib
		}
	}
	c.leader = p.center(c)
	sib.leader = p.center(sib)

	parent := c.parent
	if parent == nil {
		// Splitting the top cluster grows the hierarchy by one layer.
		parent = &Cluster{
			layer:    c.layer + 1,
			members:  map[vnet.HostID]bool{c.leader: true, sib.leader: true},
			children: map[vnet.HostID]*Cluster{c.leader: c, sib.leader: sib},
		}
		parent.leader = p.center(parent)
		c.parent = parent
		sib.parent = parent
		p.top = parent
		return
	}
	// Replace old leader by the two new leaders in the parent.
	delete(parent.members, oldLeader)
	delete(parent.children, oldLeader)
	parent.members[c.leader] = true
	parent.children[c.leader] = c
	parent.members[sib.leader] = true
	parent.children[sib.leader] = sib
	p.relead(parent)
	p.checkSplit(parent)
}

// checkMerge merges the cluster with its nearest sibling if it has
// fallen below k members (the top cluster is exempt).
func (p *Protocol) checkMerge(c *Cluster) {
	if len(c.members) >= p.k || c.parent == nil {
		return
	}
	parent := c.parent
	// Nearest sibling: the parent member (other than c's leader) whose
	// RTT to c's leader is smallest.
	var sib *Cluster
	var bestRTT time.Duration
	for m, child := range parent.children {
		if child == c {
			continue
		}
		rtt := p.net.RTT(c.leader, m)
		if sib == nil || rtt < bestRTT || (rtt == bestRTT && m < sib.leader) {
			sib, bestRTT = child, rtt
		}
	}
	if sib == nil {
		// c is the parent's only child: collapse the parent layer.
		p.collapseInto(c)
		return
	}
	// Move all of c's members into the sibling.
	for h := range c.members {
		sib.members[h] = true
		if c.layer > 0 {
			sib.children[h] = c.children[h]
			c.children[h].parent = sib
		} else {
			p.layer0[h] = sib
		}
	}
	delete(parent.members, c.leader)
	delete(parent.children, c.leader)
	p.relead(sib)
	p.checkSplit(sib)
	if len(parent.members) > 0 {
		p.checkMerge(parent)
	}
	p.collapseTop()
}

// collapseInto removes a degenerate parent chain above a sole child.
func (p *Protocol) collapseInto(c *Cluster) {
	parent := c.parent
	if parent == nil || len(parent.members) != 1 {
		return
	}
	grand := parent.parent
	if grand == nil {
		// The parent is the top cluster with a single member; but a
		// cluster's layer must match its depth, so only collapse when
		// c itself can become top.
		c.parent = nil
		p.top = c
		p.collapseTop()
		return
	}
	// Replace parent by c in the grandparent.
	delete(grand.children, parent.leader)
	delete(grand.members, parent.leader)
	grand.members[c.leader] = true
	grand.children[c.leader] = c
	c.parent = grand
	// c's layer is now inconsistent with grand.layer-1; relabel the
	// subtree.
	relabel(c, grand.layer-1)
	p.relead(grand)
	p.checkMerge(grand)
}

// collapseTop removes top layers that contain a single member.
func (p *Protocol) collapseTop() {
	for p.top != nil && p.top.layer > 0 && len(p.top.members) == 1 {
		var only *Cluster
		for _, child := range p.top.children {
			only = child
		}
		only.parent = nil
		p.top = only
	}
}

func relabel(c *Cluster, layer int) {
	c.layer = layer
	for _, child := range c.children {
		relabel(child, layer-1)
	}
}

func sortedHosts(set map[vnet.HostID]bool) []vnet.HostID {
	out := make([]vnet.HostID, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func hostSet(hosts []vnet.HostID) map[vnet.HostID]bool {
	out := make(map[vnet.HostID]bool, len(hosts))
	for _, h := range hosts {
		out[h] = true
	}
	return out
}

// Check verifies the hierarchy invariants: cluster sizes within
// [k, 3k-1] (top cluster exempt from the lower bound; every cluster
// exempt while the group is tiny), leaders are members and lead exactly
// one child cluster per upper-layer membership, parent/child links are
// consistent, and every member appears in exactly one layer-0 cluster.
func (p *Protocol) Check() error {
	if p.top == nil {
		if len(p.members) != 0 {
			return fmt.Errorf("nice: %d members but no hierarchy", len(p.members))
		}
		return nil
	}
	seen := make(map[vnet.HostID]bool)
	var walk func(c *Cluster) error
	walk = func(c *Cluster) error {
		if len(c.members) == 0 {
			return fmt.Errorf("nice: empty cluster at layer %d", c.layer)
		}
		if !c.members[c.leader] {
			return fmt.Errorf("nice: leader %d not in its cluster (layer %d)", c.leader, c.layer)
		}
		if len(c.members) > p.maxSize() {
			return fmt.Errorf("nice: cluster of %d members exceeds %d (layer %d)", len(c.members), p.maxSize(), c.layer)
		}
		if c != p.top && len(c.members) < p.k && p.Size() >= p.k {
			return fmt.Errorf("nice: cluster of %d members below k=%d (layer %d)", len(c.members), p.k, c.layer)
		}
		if c.layer == 0 {
			for h := range c.members {
				if seen[h] {
					return fmt.Errorf("nice: host %d in two layer-0 clusters", h)
				}
				seen[h] = true
				if p.layer0[h] != c {
					return fmt.Errorf("nice: host %d layer-0 index mismatch", h)
				}
			}
			return nil
		}
		if len(c.children) != len(c.members) {
			return fmt.Errorf("nice: layer-%d cluster has %d members but %d children", c.layer, len(c.members), len(c.children))
		}
		for h, child := range c.children {
			if !c.members[h] {
				return fmt.Errorf("nice: child map entry %d not a member", h)
			}
			if child.parent != c {
				return fmt.Errorf("nice: broken parent link below layer %d", c.layer)
			}
			if child.leader != h {
				return fmt.Errorf("nice: member %d does not lead its child cluster (leader %d)", h, child.leader)
			}
			if child.layer != c.layer-1 {
				return fmt.Errorf("nice: child layer %d under layer %d", child.layer, c.layer)
			}
			if err := walk(child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.top); err != nil {
		return err
	}
	if len(seen) != len(p.members) {
		return fmt.Errorf("nice: hierarchy covers %d members, group has %d", len(seen), len(p.members))
	}
	return nil
}
