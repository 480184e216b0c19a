// Package vnet provides the simulated underlying networks used by the
// paper's evaluation:
//
//   - a GT-ITM-style transit-stub router topology (5000 routers, ~13000
//     links, with the paper's four link-delay classes), onto which group
//     members are attached at uniformly random routers, and
//   - a synthetic PlanetLab round-trip-time matrix standing in for the
//     authors' measurement of 227 PlanetLab hosts (August 12, 2004). The
//     substitution preserves the clustered structure of Internet RTTs —
//     same-site ≪ same-continent ≪ cross-continent — which is what the
//     topology-aware ID assignment scheme and the delay thresholds
//     R = (150, 30, 9, 3) ms depend on.
//
// Both networks implement Network, exposing end-to-end RTTs, per-host
// access-link RTTs (the paper's h(u, gateway), used by the ID assignment
// protocol to estimate gateway-to-gateway RTTs), and — for the router
// topology — the underlying link-level paths needed to measure link
// stress (Fig. 13 (c)). A GTITM reads RTTs and paths from tables built
// with it, per stub domain and for the transit core; it is immutable
// and safe for concurrent readers.
package vnet

import "time"

// HostID names an attached end host (a group member or the key server).
// Hosts are numbered 0..NumHosts-1.
type HostID int

// LinkID names a physical network link of a router topology.
type LinkID int

// Network is the delay oracle the simulator runs on.
type Network interface {
	// NumHosts returns the number of attachable end hosts.
	NumHosts() int
	// RTT returns the round-trip time between two end hosts. RTT(a, a)
	// is zero. RTTs are symmetric.
	RTT(a, b HostID) time.Duration
	// OneWay returns the one-way delay between two hosts, defined as
	// half the RTT as in the paper's simulations.
	OneWay(a, b HostID) time.Duration
	// AccessRTT returns the RTT between a host and its gateway (first-
	// hop) router — the h(u, gateway) of Section 3.1.2.
	AccessRTT(h HostID) time.Duration
	// GatewayRTT returns the RTT between the gateway routers of two
	// hosts — the r(u, w) the ID assignment protocol actually compares
	// against the delay thresholds.
	GatewayRTT(a, b HostID) time.Duration
	// NumLinks returns the number of physical links, or zero when the
	// network is a pure delay matrix with no modelled router graph.
	NumLinks() int
	// AppendPathLinks appends the link-level route between two hosts'
	// gateway routers (excluding the access links) to dst, which the
	// caller owns, and returns it; it appends nothing when links are not
	// modelled or no route exists. Implementations must be safe for
	// concurrent use: the experiment harness runs sessions in parallel.
	AppendPathLinks(dst []LinkID, a, b HostID) []LinkID
}

// Stubs is implemented by a network whose hosts meet across stub
// domains only through each stub's one uplink, so that for hosts a and
// b in different stubs RTT(a, b) = UpRTT(a) + CoreRTT(StubOf(a),
// StubOf(b)) + UpRTT(b), exactly, in whole nanoseconds. Only *GTITM
// implements it; a wrapper that changes RTTs must not (one that embeds
// the Network interface does not).
type Stubs interface {
	// NumStubs returns the number of stub domains; StubOf numbers them
	// 0..NumStubs-1.
	NumStubs() int
	StubOf(h HostID) int
	// UpRTT returns the RTT from a host to its stub's transit router.
	UpRTT(h HostID) time.Duration
	// CoreRTT returns the RTT between two stubs' transit routers.
	CoreRTT(s, t int) time.Duration
}

// clampRTT makes gateway RTT estimates safe: subtracting access-link RTTs
// from an end-to-end measurement can go negative under noise.
func clampRTT(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}
