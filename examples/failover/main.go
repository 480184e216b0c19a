// Failover: T-mesh's fast failure recovery. With K > 1 neighbors per
// table entry, a forwarder that detects a dead primary neighbor simply
// hands the message to the next neighbor in the same entry — no tree
// repair needed before delivery continues (Section 2.3).
//
// The example multicasts to a 80-user group, then kills increasingly
// many users and shows how delivery to the survivors degrades — slowly
// with K=4, sharply with K=1.
//
// Run with:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/ident"
	"tmesh/internal/overlay"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const users = 80
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), users+1, 5)
	if err != nil {
		return err
	}
	acfg := assign.Config{
		Params:        ident.Params{Digits: 4, Base: 64},
		Thresholds:    []time.Duration{150e6, 30e6, 9e6},
		Percentile:    90,
		CollectTarget: 8,
	}

	for _, k := range []int{1, 4} {
		dir, err := overlay.NewDirectory(acfg.Params, k, net, 0)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(9))
		assigner, err := assign.New(acfg, dir, rng)
		if err != nil {
			return err
		}
		var members []ident.ID
		for h := 1; h <= users; h++ {
			rec, _, err := assigner.Join(vnet.HostID(h), 0)
			if err != nil {
				return err
			}
			members = append(members, rec.ID)
		}

		fmt.Printf("K=%d:\n", k)
		for _, failures := range []int{0, 4, 8, 16} {
			dead := make(map[ident.ID]bool, failures)
			for len(dead) < failures {
				dead[members[rng.Intn(len(members))]] = true
			}
			alive := func(id ident.ID) bool { return !dead[id] }
			res, err := tmesh.Multicast(tmesh.Config[int]{
				Dir:   dir,
				Alive: alive,
			}, 1)
			if err != nil {
				return err
			}
			delivered, liveCount := 0, 0
			for _, id := range members {
				if dead[id] {
					continue
				}
				liveCount++
				if st := res.Users[id]; st != nil && st.Received >= 1 {
					delivered++
				}
			}
			fmt.Printf("  %2d failed users: %d/%d live users reached, %d subtrees lost\n",
				failures, delivered, liveCount, res.Lost)
		}
	}
	fmt.Println("with K=4, dead primaries are bypassed via same-entry fallbacks; K=1 has no fallback")

	// Act two: the Section 3.2 recovery protocol. The owners that hold a
	// crashed user detect it by consecutive missed pings and notify the
	// key server, which evicts it; each of them then repairs its own
	// entry from the live membership — restoring K-consistency.
	dir, err := overlay.NewDirectory(acfg.Params, 4, net, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(17))
	assigner, err := assign.New(acfg, dir, rng)
	if err != nil {
		return err
	}
	var members []ident.ID
	for h := 1; h <= users; h++ {
		rec, _, err := assigner.Join(vnet.HostID(h), 0)
		if err != nil {
			return err
		}
		members = append(members, rec.ID)
	}
	victim := members[23]
	holders := dir.Holders(victim)
	if err := dir.Evict(victim); err != nil {
		return err
	}
	before := dir.MaintenanceMessages()
	for _, owner := range holders {
		dir.Repair(owner, victim, nil)
	}
	fmt.Printf("crash of %v: evicted, %d holders repaired their entries with %d messages\n",
		victim, len(holders), dir.MaintenanceMessages()-before)
	if left := dir.Holders(victim); len(left) != 0 {
		return fmt.Errorf("%d tables still hold the evicted user", len(left))
	}
	if err := dir.CheckConsistency(); err != nil {
		return fmt.Errorf("tables inconsistent after recovery: %w", err)
	}
	fmt.Println("neighbor tables K-consistent again after repair ✓")
	return nil
}
