package nice

import (
	"fmt"
	"sort"
	"time"

	"tmesh/internal/vnet"
)

// Stats is one member's view of a multicast session (mirrors the T-mesh
// metrics so the evaluation can compare them directly).
type Stats struct {
	// Received counts message copies delivered to this member.
	Received int
	// Delay is the application-layer delay of the first copy.
	Delay time.Duration
	// RDP is Delay over the one-way unicast delay from the sender.
	RDP float64
	// Stress is the number of copies this member forwarded.
	Stress int
	// UnitsReceived and UnitsForwarded count payload units (e.g.
	// encryptions) received and forwarded.
	UnitsReceived, UnitsForwarded int
}

// Result aggregates a session.
type Result struct {
	Members      map[vnet.HostID]*Stats
	SenderStress int
	LinkCopies   map[vnet.LinkID]int
	LinkUnits    map[vnet.LinkID]int
	// Duration is the delay of the last delivery.
	Duration time.Duration
}

// Options configures a multicast session.
type Options struct {
	// FromServer models rekey transport: the ServerHost (not a NICE
	// member) unicasts the message to the hierarchy root, which then
	// distributes it top-down.
	FromServer bool
	ServerHost vnet.HostID
	// Units is the payload size in units (encryptions); default 1.
	Units int
	// UnitsFor, when non-nil, implements rekey message splitting over
	// the NICE tree: it returns how many units the hop toward receiver
	// must carry, given the set of members in receiver's delivery
	// subtree (receiver included). Returning 0 suppresses the hop.
	// This is the per-downstream-user state the paper points out NICE
	// needs ("each user has to keep track of who are its downstream
	// users and which encryptions are needed by them").
	UnitsFor func(receiver vnet.HostID, downstream []vnet.HostID) int
	// Reserve, when non-nil, models access-link bandwidth: each copy a
	// member sends occupies its uplink from the given time and the hop
	// departs when the transmission completes (share one
	// tmesh.Uplinks.Reserve across transports to race them).
	Reserve func(h vnet.HostID, units int, now time.Duration) time.Duration
	// StartAt offsets the session start (used with Reserve to race
	// sessions against each other).
	StartAt time.Duration
}

type deliveryNode struct {
	host     vnet.HostID
	from     *Cluster
	children []*deliveryNode
	// downstream is filled by a post-order pass: all hosts in this
	// node's subtree, itself included.
	downstream []vnet.HostID
}

// Multicast simulates one session from the given member (or from the key
// server via the root when opts.FromServer is set) and returns per-member
// metrics.
func (p *Protocol) Multicast(sender vnet.HostID, opts Options) (*Result, error) {
	if p.top == nil {
		return nil, fmt.Errorf("nice: empty group")
	}
	source := sender
	if opts.FromServer {
		source = p.top.leader
	} else if !p.members[sender] {
		return nil, fmt.Errorf("nice: sender %d is not a member", sender)
	}
	if opts.Units == 0 {
		opts.Units = 1
	}

	// Pass 1: build the delivery tree by the NICE forwarding rule — a
	// member forwards to all peers of all its clusters except the
	// cluster the copy arrived from.
	visited := map[vnet.HostID]bool{source: true}
	root := &deliveryNode{host: source}
	p.expand(root, visited)

	// Pass 2: downstream sets (post-order).
	fillDownstream(root)

	// Pass 3: walk the tree accumulating metrics.
	res := &Result{
		Members:    make(map[vnet.HostID]*Stats, len(p.members)),
		LinkCopies: make(map[vnet.LinkID]int),
		LinkUnits:  make(map[vnet.LinkID]int),
	}
	for h := range p.members {
		res.Members[h] = &Stats{}
	}
	var path []vnet.LinkID // link buffer, reused by every hop of the walk
	unicastFrom := source
	start := opts.StartAt
	if opts.FromServer {
		unicastFrom = opts.ServerHost
		depart := opts.StartAt
		if opts.Reserve != nil {
			depart = opts.Reserve(opts.ServerHost, opts.Units, opts.StartAt)
		}
		start = depart + p.net.OneWay(opts.ServerHost, source)
		res.SenderStress = 1 // the server's unicast to the root
		// The root "receives" the message from the server.
		st := res.Members[source]
		st.Received = 1
		st.Delay = start
		st.UnitsReceived = opts.Units
		if uni := p.net.OneWay(opts.ServerHost, source); uni > 0 {
			st.RDP = float64(st.Delay-opts.StartAt) / float64(uni)
		} else {
			st.RDP = 1
		}
		path = p.net.AppendPathLinks(path, opts.ServerHost, source)
		for _, l := range path {
			res.LinkCopies[l]++
			res.LinkUnits[l] += opts.Units
		}
		if start > res.Duration {
			res.Duration = start
		}
	}
	p.walk(root, start, unicastFrom, opts, res, path)
	return res, nil
}

// expand adds, for every cluster of node.host except the arrival
// cluster, one child per unvisited peer.
func (p *Protocol) expand(node *deliveryNode, visited map[vnet.HostID]bool) {
	for _, c := range p.clustersOf(node.host) {
		if c == node.from {
			continue
		}
		for _, peer := range sortedHosts(c.members) {
			if visited[peer] {
				continue
			}
			visited[peer] = true
			child := &deliveryNode{host: peer, from: c}
			node.children = append(node.children, child)
			p.expand(child, visited)
		}
	}
}

// clustersOf lists the clusters a member belongs to, layer 0 upward.
func (p *Protocol) clustersOf(h vnet.HostID) []*Cluster {
	var out []*Cluster
	c := p.layer0[h]
	for c != nil {
		out = append(out, c)
		if c.leader != h {
			break
		}
		c = c.parent
	}
	return out
}

func fillDownstream(n *deliveryNode) []vnet.HostID {
	n.downstream = []vnet.HostID{n.host}
	for _, c := range n.children {
		n.downstream = append(n.downstream, fillDownstream(c)...)
	}
	sort.Slice(n.downstream, func(i, j int) bool { return n.downstream[i] < n.downstream[j] })
	return n.downstream
}

func (p *Protocol) walk(n *deliveryNode, at time.Duration, rdpSource vnet.HostID, opts Options, res *Result, path []vnet.LinkID) {
	for _, child := range n.children {
		units := opts.Units
		if opts.UnitsFor != nil {
			units = opts.UnitsFor(child.host, child.downstream)
			if units == 0 {
				continue
			}
		}
		if st, ok := res.Members[n.host]; ok {
			st.Stress++
			st.UnitsForwarded += units
		} else {
			res.SenderStress++
		}
		depart := at
		if opts.Reserve != nil {
			depart = opts.Reserve(n.host, units, at)
		}
		arrive := depart + p.net.OneWay(n.host, child.host)
		st := res.Members[child.host]
		st.Received++
		st.UnitsReceived += units
		if st.Received == 1 {
			st.Delay = arrive
			if uni := p.net.OneWay(rdpSource, child.host); uni > 0 {
				st.RDP = float64(arrive-opts.StartAt) / float64(uni)
			} else {
				st.RDP = 1
			}
		}
		if arrive > res.Duration {
			res.Duration = arrive
		}
		path = p.net.AppendPathLinks(path[:0], n.host, child.host)
		for _, l := range path {
			res.LinkCopies[l]++
			res.LinkUnits[l] += units
		}
		p.walk(child, arrive, rdpSource, opts, res, path)
	}
	// The session source is a member only in data transport; its stress
	// is recorded via res.Members; for FromServer the root's own sends
	// are counted as member stress above (it is a member).
}
