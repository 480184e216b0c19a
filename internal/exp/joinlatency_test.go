package exp

import (
	"testing"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/vnet"
)

// latNet is a fixed-RTT network stub for latency replay tests.
type latNet struct{ rtt time.Duration }

func (l latNet) NumHosts() int                             { return 10 }
func (l latNet) RTT(a, b vnet.HostID) time.Duration        { return l.rtt }
func (l latNet) OneWay(a, b vnet.HostID) time.Duration     { return l.rtt / 2 }
func (l latNet) AccessRTT(vnet.HostID) time.Duration       { return 0 }
func (l latNet) GatewayRTT(a, b vnet.HostID) time.Duration { return l.rtt }
func (l latNet) NumLinks() int                             { return 0 }
func (l latNet) AppendPathLinks(dst []vnet.LinkID, a, b vnet.HostID) []vnet.LinkID {
	return dst
}

func TestJoinLatencyReplay(t *testing.T) {
	net := latNet{rtt: 10 * time.Millisecond}
	trace := []assign.Exchange{
		{Kind: assign.ExchangeServer, Peer: 0, Level: -1}, // 10ms
		{Kind: assign.ExchangeQuery, Peer: 1, Level: 0},   // 10ms
		{Kind: assign.ExchangeQuery, Peer: 2, Level: 0},   // 10ms
		{Kind: assign.ExchangeProbe, Peer: 3, Level: 0},   // batch of 3 probes: 10ms
		{Kind: assign.ExchangeProbe, Peer: 4, Level: 0},
		{Kind: assign.ExchangeProbe, Peer: 5, Level: 0},
		{Kind: assign.ExchangeProbe, Peer: 6, Level: 1},   // second batch: 10ms
		{Kind: assign.ExchangeServer, Peer: 0, Level: -1}, // 10ms
	}
	if got := JoinLatency(net, 9, trace); got != 60*time.Millisecond {
		t.Errorf("JoinLatency = %v, want 60ms (5 sequential round trips + 2 probe batches as 2)", got)
	}
	if got := JoinLatency(net, 9, nil); got != 0 {
		t.Errorf("empty trace latency = %v", got)
	}
}
