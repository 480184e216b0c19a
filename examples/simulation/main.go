// Simulation: a long-running group driven by a generated workload — the
// paper's operational model end to end. 256 viewers arrive over a
// half-hour warm-up, then churn continues while the key server batches
// joins and leaves into periodic rekey intervals; every interval's rekey
// message is multicast with splitting and applied to every user's
// keyring (real AES-GCM).
//
// Run with:
//
//	go run ./examples/simulation
package main

import (
	"fmt"
	"log"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sched, err := workload.Generate(workload.Config{
		InitialJoins: 256,
		WarmUp:       30 * time.Minute,
		ChurnJoins:   64,
		ChurnLeaves:  64,
		Interval:     10 * time.Minute,
		Seed:         2026,
	})
	if err != nil {
		return err
	}
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), sched.Hosts+1, 2026)
	if err != nil {
		return err
	}
	group, err := core.NewGroup(core.Config{
		Net:        net,
		ServerHost: 0,
		Seed:       2026,
		Assign: assign.Config{
			Params:        ident.Params{Digits: 4, Base: 64},
			Thresholds:    []time.Duration{150e6, 30e6, 9e6},
			Percentile:    90,
			CollectTarget: 10,
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("replaying %d membership events with a 5-minute rekey interval\n", len(sched.Events))
	stats, err := core.RunSession(core.SessionConfig{
		Group:    group,
		Schedule: sched,
		Interval: 5 * time.Minute,
		OnInterval: func(i int, msg *keytree.Message, rep *split.Report) {
			line := fmt.Sprintf("interval %2d: %4d members, rekey %4d encryptions",
				i, group.Size(), msg.Cost())
			if rep != nil {
				max := 0
				for _, n := range rep.ReceivedPerUser {
					if n > max {
						max = n
					}
				}
				line += fmt.Sprintf(", heaviest user received %3d", max)
			}
			fmt.Println(line)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("done: %d joins, %d leaves, %d intervals, %d total / %d peak encryptions\n",
		stats.Joins, stats.Leaves, stats.Intervals, stats.TotalRekeyCost, stats.PeakRekeyCost)

	// Final sanity: the room can still talk.
	sealed, err := group.SealForGroup([]byte("closing credits"))
	if err != nil {
		return err
	}
	readable := 0
	for _, id := range group.Dir().IDs() {
		if _, err := group.OpenAsUser(id, sealed); err == nil {
			readable++
		}
	}
	fmt.Printf("%d/%d current members decrypt the final message ✓\n", readable, group.Size())
	if readable != group.Size() {
		return fmt.Errorf("some members lost the group key")
	}
	return nil
}
