package gnp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// CentralizedAssigner is the Section 5 optimisation: the key server
// stores every member's GNP coordinates and places a joining user in the
// ID tree by centralized computing. The joiner's communication cost is
// the landmark probes plus one round trip with the server — independent
// of group size — instead of the distributed protocol's
// O(P·D·N^(1/D)) queries.
type CentralizedAssigner struct {
	cfg    assign.Config
	space  *Space
	tree   *ident.Tree
	coords map[ident.ID]Coords
	rng    *rand.Rand
}

// NewCentralizedAssigner builds an assigner over a calibrated space.
func NewCentralizedAssigner(cfg assign.Config, space *Space, rng *rand.Rand) (*CentralizedAssigner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if space == nil {
		return nil, fmt.Errorf("gnp: space is required")
	}
	if rng == nil {
		return nil, fmt.Errorf("gnp: rng is required")
	}
	return &CentralizedAssigner{
		cfg:    cfg,
		space:  space,
		tree:   ident.NewTree(cfg.Params),
		coords: make(map[ident.ID]Coords),
		rng:    rng,
	}, nil
}

// Size returns the number of registered members.
func (a *CentralizedAssigner) Size() int { return a.tree.Size() }

// AssignID places a joining host: it locates the host in the GNP space
// (ProbeCount RTT probes), walks the ID tree level by level choosing the
// child subtree whose members' F-percentile *estimated* RTT passes the
// R_{i+1} threshold, and completes the ID with the standard uniqueness
// step. The stats mirror the distributed protocol's for comparison.
func (a *CentralizedAssigner) AssignID(host vnet.HostID) (ident.ID, assign.Stats, error) {
	var st assign.Stats
	st.Probes = a.space.ProbeCount()
	st.Messages = 2*st.Probes + 2 // landmark probes + server round trip
	pos := a.space.Locate(host)

	params := a.cfg.Params
	determined := make([]ident.Digit, 0, params.Digits)
	if a.tree.Size() > 0 {
		for i := 0; i <= params.Digits-2; i++ {
			prefix, err := ident.PrefixOf(params, determined)
			if err != nil {
				return ident.ID{}, st, err
			}
			best, bestF, ok := a.bestChild(pos, prefix)
			if !ok || bestF > a.cfg.Thresholds[i] {
				break
			}
			determined = append(determined, best)
		}
	}
	id, assigned, err := assign.CompleteID(a.tree, params, a.rng, determined)
	if err != nil {
		return ident.ID{}, st, err
	}
	st.ServerAssigned = assigned
	if err := a.register(id, pos); err != nil {
		return ident.ID{}, st, err
	}
	return id, st, nil
}

// bestChild evaluates every existing child subtree of the prefix: the
// F-percentile of estimated RTTs from pos to the subtree's members,
// sampled up to CollectTarget members per subtree like the distributed
// protocol.
func (a *CentralizedAssigner) bestChild(pos Coords, prefix ident.Prefix) (ident.Digit, time.Duration, bool) {
	bestDigit := ident.Digit(-1)
	var bestF time.Duration
	for _, d := range a.tree.ChildDigits(prefix) {
		members := a.tree.Members(prefix.Child(d))
		if len(members) > a.cfg.CollectTarget {
			members = members[:a.cfg.CollectTarget]
		}
		rtts := make([]time.Duration, 0, len(members))
		for _, m := range members {
			c, ok := a.coords[m]
			if !ok {
				continue
			}
			rtts = append(rtts, EstimateRTT(pos, c))
		}
		if len(rtts) == 0 {
			continue
		}
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		rank := int(math.Ceil(a.cfg.Percentile / 100 * float64(len(rtts))))
		if rank < 1 {
			rank = 1
		}
		f := rtts[rank-1]
		if bestDigit < 0 || f < bestF {
			bestDigit, bestF = d, f
		}
	}
	if bestDigit < 0 {
		return 0, 0, false
	}
	return bestDigit, bestF, true
}

func (a *CentralizedAssigner) register(id ident.ID, pos Coords) error {
	if err := a.tree.Insert(id); err != nil {
		return err
	}
	a.coords[id] = pos
	return nil
}

// Forget removes a departed member from the server's coordinate store.
func (a *CentralizedAssigner) Forget(id ident.ID) error {
	if _, ok := a.coords[id]; !ok {
		return fmt.Errorf("gnp: unknown member %v", id)
	}
	delete(a.coords, id)
	return a.tree.Remove(id)
}

// Register records an externally assigned member (e.g. when mixing
// assignment strategies); pos must be its located coordinates.
func (a *CentralizedAssigner) Register(id ident.ID, pos Coords) error {
	return a.register(id, pos)
}
