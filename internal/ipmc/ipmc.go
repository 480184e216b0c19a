// Package ipmc implements the IP multicast baseline (protocol P_ip of
// Table 2): a DVMRP-style source-rooted shortest-path delivery tree over
// the router topology [9, 26].
//
// Routers replicate the message, so each physical link of the delivery
// tree carries exactly one copy, end hosts forward nothing, and every
// receiver gets the full rekey message (IP multicast offers no
// application-layer point to split at). The paper uses it as the
// lower bound on link stress and the no-splitting bound on per-user
// bandwidth.
package ipmc

import (
	"fmt"
	"time"

	"tmesh/internal/vnet"
)

// Result holds the metrics of one IP-multicast session.
type Result struct {
	// Delays is the one-way delivery delay per receiver.
	Delays map[vnet.HostID]time.Duration
	// LinkCopies is 1 for every link of the delivery tree.
	LinkCopies map[vnet.LinkID]int
	// LinkUnits is the payload units carried per tree link.
	LinkUnits map[vnet.LinkID]int
	// UnitsPerReceiver is what every receiver gets: the whole message.
	UnitsPerReceiver int
	// Duration is the largest delivery delay.
	Duration time.Duration
}

// Multicast delivers units payload units from the source host to every
// receiver along the network's shortest-path tree. The network must
// model links (a router topology).
func Multicast(net vnet.Network, source vnet.HostID, receivers []vnet.HostID, units int) (*Result, error) {
	if net == nil {
		return nil, fmt.Errorf("ipmc: network is required")
	}
	if net.NumLinks() == 0 {
		return nil, fmt.Errorf("ipmc: network does not model links; IP multicast needs a router topology")
	}
	if units < 1 {
		return nil, fmt.Errorf("ipmc: units must be >= 1, got %d", units)
	}
	res := &Result{
		Delays:           make(map[vnet.HostID]time.Duration, len(receivers)),
		LinkCopies:       make(map[vnet.LinkID]int),
		LinkUnits:        make(map[vnet.LinkID]int),
		UnitsPerReceiver: units,
	}
	var path []vnet.LinkID
	for _, r := range receivers {
		if r == source {
			continue
		}
		d := net.OneWay(source, r)
		res.Delays[r] = d
		if d > res.Duration {
			res.Duration = d
		}
		// The union of per-receiver shortest paths from one source is
		// the source-rooted tree: each link appears once regardless of
		// how many receivers sit behind it.
		path = net.AppendPathLinks(path[:0], source, r)
		for _, l := range path {
			if res.LinkCopies[l] == 0 {
				res.LinkCopies[l] = 1
				res.LinkUnits[l] = units
			}
		}
	}
	return res, nil
}
