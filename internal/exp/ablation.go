package exp

import (
	"fmt"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/keytree"
	"tmesh/internal/metrics"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// Section 2.6 argues that the efficiency of rekey message splitting
// "comes from a careful integration of the other system components" and
// would degrade if any were replaced. The ablations here make those
// arguments measurable:
//
//   - RunIDAblation scrambles the host-to-ID mapping, keeping the same
//     key tree (the PRR/Pastry/Tapestry-style location-independent
//     placement): "users from the same LAN could belong to different
//     level-0 ID subtrees... multiple copies of the shared encryptions
//     traverse the Internet".
//   - PacketSizes replaces encryption-level splitting with packet-level
//     splitting at several packet sizes (end of Section 2.5): "the rekey
//     bandwidth overhead would be larger".

// AblationConfig drives the ID-assignment ablation (and, reused for
// convenience, the packet-split and loss sweeps).
type AblationConfig struct {
	N           int
	ChurnJoins  int
	ChurnLeaves int
	// Assign configures the ID space; zero value = paper defaults.
	Assign assign.Config
	K      int
	Seed   int64
	// Progress, when non-nil, receives each unit's index and wall-clock
	// duration as it completes.
	Progress Progress
}

// AblationReport compares one assignment policy.
type AblationReport struct {
	Policy string // "topology-aware" or "scrambled"
	// RekeyCost is the batch message size (identical for both policies
	// by construction: the ID multiset, and hence the key tree, is the
	// same — only the host-to-ID mapping differs).
	RekeyCost int
	// Received is the per-user received-encryptions distribution under
	// encryption-level splitting.
	Received *metrics.Distribution
	// LinkMax and LinkTotal summarise network link stress in units.
	LinkMax, LinkTotal int
	// MeanRDP is the mean relative delay penalty of a rekey multicast.
	MeanRDP float64
	// DelayP95MS is the 95th-percentile application-layer delay.
	DelayP95MS float64
}

// RunIDAblation isolates the value of topology-aware ID assignment: it
// runs the Section 3.1 protocol once, then builds a second group with
// the *same IDs* randomly permuted across hosts (the location-
// independent placement a PRR/Pastry/Tapestry-style random ID gives).
// Both groups share one key tree and one rekey message; only locality
// differs, so the link-stress and latency gaps are attributable to the
// assignment scheme alone.
func RunIDAblation(cfg AblationConfig) ([]AblationReport, error) {
	// Pass 1: topology-aware assignment for all hosts (initial + churn
	// joiners), recording the host->ID mapping.
	g, err := newChurnGroup(cfg.Assign, cfg.K, cfg.Seed, cfg.N, cfg.ChurnJoins, "ablation")
	if err != nil {
		return nil, err
	}

	// Pass 2: the same IDs scrambled across the same hosts.
	perm := g.rng.Perm(len(g.ids))
	scrambledDir, err := overlay.NewDirectory(g.dir.Params(), g.dir.K(), g.net, 0)
	if err != nil {
		return nil, err
	}
	for i := range g.ids {
		rec := overlay.Record{Host: vnet.HostID(i + 1), ID: g.ids[perm[i]], JoinTime: time.Duration(i)}
		if err := scrambledDir.Join(rec); err != nil {
			return nil, err
		}
	}

	// One shared key tree and churn batch for both.
	msg, err := g.churn(cfg.ChurnLeaves, scrambledDir)
	if err != nil {
		return nil, err
	}

	// Both directories are fully churned and only read from here on, so
	// the two policy measurements run concurrently.
	policies := []struct {
		name string
		dir  *overlay.Directory
	}{{"topology-aware", g.dir}, {"scrambled", scrambledDir}}
	out := make([]AblationReport, len(policies))
	err = forEachUnit(len(policies), cfg.Progress, func(i int) error {
		rep, err := measureIDPolicy(policies[i].name, policies[i].dir, msg)
		if err != nil {
			return fmt.Errorf("exp: policy %s: %w", policies[i].name, err)
		}
		out[i] = *rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func measureIDPolicy(name string, dir *overlay.Directory, msg *keytree.Message) (*AblationReport, error) {
	srep, err := split.Rekey(dir, msg, split.Options{Mode: split.PerEncryption})
	if err != nil {
		return nil, err
	}
	var recv []float64
	for _, st := range srep.Multicast.Users {
		recv = append(recv, float64(st.UnitsReceived))
	}
	linkMax, linkTotal := 0, 0
	for _, u := range srep.LinkUnits {
		linkTotal += u
		if u > linkMax {
			linkMax = u
		}
	}
	lres, err := tmesh.Multicast(tmesh.Config[int]{Dir: dir}, 1)
	if err != nil {
		return nil, err
	}
	var rdps, delays []float64
	for _, st := range lres.Users {
		rdps = append(rdps, st.RDP)
		delays = append(delays, float64(st.Delay)/float64(time.Millisecond))
	}
	return &AblationReport{
		Policy:     name,
		RekeyCost:  msg.Cost(),
		Received:   metrics.NewDistribution(recv),
		LinkMax:    linkMax,
		LinkTotal:  linkTotal,
		MeanRDP:    metrics.NewDistribution(rdps).Mean(),
		DelayP95MS: metrics.NewDistribution(delays).Percentile(95),
	}, nil
}

// PacketSweepPoint is one packet size of the Section 2.5 packet-level
// splitting ablation.
type PacketSweepPoint struct {
	// PacketSize in encryptions per packet; 0 denotes encryption-level
	// splitting (the paper's scheme).
	PacketSize int
	// MeanReceived and MaxReceived are per-user received encryptions.
	MeanReceived float64
	MaxReceived  float64
}

// RunPacketSweep compares encryption-level splitting against
// packet-level splitting at the given packet sizes on one churned group.
func RunPacketSweep(cfg AblationConfig, packetSizes []int) ([]PacketSweepPoint, error) {
	g, err := newChurnGroup(cfg.Assign, cfg.K, cfg.Seed, cfg.N, cfg.ChurnJoins, "pkt")
	if err != nil {
		return nil, err
	}
	msg, err := g.churn(cfg.ChurnLeaves)
	if err != nil {
		return nil, err
	}

	measure := func(opts split.Options) (PacketSweepPoint, error) {
		rep, err := split.Rekey(g.dir, msg, opts)
		if err != nil {
			return PacketSweepPoint{}, err
		}
		var recv []float64
		for _, n := range rep.ReceivedPerUser {
			recv = append(recv, float64(n))
		}
		d := metrics.NewDistribution(recv)
		return PacketSweepPoint{MeanReceived: d.Mean(), MaxReceived: d.Max()}, nil
	}

	for _, size := range packetSizes {
		if size < 1 {
			return nil, fmt.Errorf("exp: packet size must be >= 1, got %d", size)
		}
	}
	// Unit 0 is the paper's encryption-level splitting; units 1.. are
	// the packet sizes. The group is read-only during measurement.
	out := make([]PacketSweepPoint, 1+len(packetSizes))
	err = forEachUnit(len(out), cfg.Progress, func(i int) error {
		opts := split.Options{Mode: split.PerEncryption}
		size := 0
		if i > 0 {
			size = packetSizes[i-1]
			opts = split.Options{Mode: split.PerPacket, PacketSize: size}
		}
		pt, err := measure(opts)
		if err != nil {
			return err
		}
		pt.PacketSize = size
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
