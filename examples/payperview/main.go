// Payperview: a pay-per-view broadcast in two acts.
//
// Act 1 — the show, with heavy viewer churn, demonstrating the cluster
// rekeying heuristic of Appendix B: viewers come and go constantly, but
// because most of them are non-leaders of their bottom clusters, the
// key server barely rekeys — compare the same churn against a plain
// modified key tree.
//
// Act 2 — the kickoff, a flash crowd: subscribers trickle in before the
// broadcast, then the whole crowd joins inside one rekey interval. The
// multi-group host (internal/grouphost) runs it as a key-plane tenant
// and the single crowd interval costs roughly one encryption per
// arrival — the batch absorbs the stampede.
//
// Run with:
//
//	go run ./examples/payperview
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/core"
	"tmesh/internal/grouphost"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	if err := runKickoff(); err != nil {
		log.Fatal(err)
	}
}

// runKickoff is act 2: the broadcast starts and crowd viewers all join
// within one rekey interval, on top of base early subscribers.
func runKickoff() error {
	const base, crowd = 500, 20000
	rep, err := grouphost.Run(grouphost.Config{
		Groups: []grouphost.GroupSpec{{
			Name:     "kickoff",
			Profile:  grouphost.KeyPlane,
			Workload: workload.FlashCrowd(base, crowd, 4711),
			Verify:   256,
		}},
		Seed: 11,
	})
	if err != nil {
		return err
	}
	g := rep.Groups[0]
	if n := len(g.Violations); n > 0 {
		return fmt.Errorf("kickoff violated %d invariants: %v", n, g.Violations)
	}
	fmt.Printf("flash-crowd kickoff        : %d early + %d at kickoff, crowd interval %d encryptions (%.2f per arrival), all %d keyrings verified\n",
		base, crowd, g.MaxCost, float64(g.MaxCost)/float64(crowd), g.FinalMembers)
	return nil
}

func run() error {
	const viewers = 96
	cfg := func(clustered bool) core.Config {
		return core.Config{
			Net:             mustNet(),
			ServerHost:      0,
			Seed:            11,
			RealCrypto:      true,
			ClusterRekeying: clustered,
			Assign: assign.Config{
				Params:        ident.Params{Digits: 3, Base: 64},
				Thresholds:    []time.Duration{150e6, 9e6},
				Percentile:    90,
				CollectTarget: 8,
			},
		}
	}

	for _, clustered := range []bool{false, true} {
		group, err := core.NewGroup(cfg(clustered))
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(3))
		var members []ident.ID
		nextHost := 1
		for i := 0; i < viewers; i++ {
			id, _, err := group.Join(vnet.HostID(nextHost), time.Duration(i)*time.Second)
			if err != nil {
				return err
			}
			nextHost++
			members = append(members, id)
		}
		msg, err := group.ProcessInterval()
		if err != nil {
			return err
		}
		if _, err := group.DistributeRekey(msg); err != nil {
			return err
		}
		setupCost := msg.Cost()

		// The show runs: five churn intervals of 8 leaves + 8 joins
		// each (late viewers joining, bored ones leaving).
		churnCost := 0
		for interval := 0; interval < 5; interval++ {
			for i := 0; i < 8 && len(members) > 8; i++ {
				// Late joiners leave first: they are almost never
				// cluster leaders.
				victim := members[len(members)-1-rng.Intn(len(members)/2)]
				if err := group.Leave(victim); err != nil {
					return err
				}
				members = remove(members, victim)
			}
			for i := 0; i < 8; i++ {
				id, _, err := group.Join(vnet.HostID(nextHost),
					time.Duration(1000+interval*100+i)*time.Second)
				if err != nil {
					return err
				}
				nextHost++
				members = append(members, id)
			}
			msg, err := group.ProcessInterval()
			if err != nil {
				return err
			}
			if _, err := group.DistributeRekey(msg); err != nil {
				return err
			}
			churnCost += msg.Cost()
		}

		// Every current viewer can still decrypt the stream.
		frame, err := group.SealForGroup([]byte("frame 4711 of the main event"))
		if err != nil {
			return err
		}
		for _, id := range members {
			if _, err := group.OpenAsUser(id, frame); err != nil {
				return fmt.Errorf("viewer %v lost the stream: %w", id, err)
			}
		}

		mode := "plain modified key tree   "
		if clustered {
			mode = "cluster rekeying heuristic"
		}
		fmt.Printf("%s: setup %4d encryptions, 5 churn intervals %4d encryptions, %d viewers fine\n",
			mode, setupCost, churnCost, len(members))
		if clustered {
			fmt.Printf("  bottom clusters: %d, intra-cluster certificate messages: %d\n",
				group.Clusters().Clusters(), group.Clusters().PairwiseMessages())
		}
	}
	return nil
}

func mustNet() *vnet.GTITM {
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), 200, 11)
	if err != nil {
		panic(err)
	}
	return net
}

func remove(ids []ident.ID, victim ident.ID) []ident.ID {
	out := ids[:0]
	for _, id := range ids {
		if !id.Equal(victim) {
			out = append(out, id)
		}
	}
	return out
}
