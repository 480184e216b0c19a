// Securechat: concurrent rekey and data transport — the scenario the
// paper is built for. A group chat runs over T-mesh data multicast while
// members churn; every rekey interval the group key changes, and the
// transcript shows that messages stay readable exactly by the members of
// the moment.
//
// Run with:
//
//	go run ./examples/securechat
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const initial = 48
	rng := rand.New(rand.NewSource(7))

	net, err := vnet.NewPlanetLab(vnet.DefaultPlanetLabConfig(), 7)
	if err != nil {
		return err
	}
	group, err := core.NewGroup(core.Config{
		Net:        net,
		ServerHost: 0,
		Seed:       7,
		Assign: assign.Config{
			Params:        ident.Params{Digits: 4, Base: 64},
			Thresholds:    []time.Duration{150e6, 30e6, 9e6},
			Percentile:    90,
			CollectTarget: 8,
		},
	})
	if err != nil {
		return err
	}

	var members []ident.ID
	nextHost := 1
	join := func(n int, at time.Duration) error {
		for i := 0; i < n; i++ {
			id, _, err := group.Join(vnet.HostID(nextHost), at)
			if err != nil {
				return err
			}
			nextHost++
			members = append(members, id)
		}
		return nil
	}
	if err := join(initial, 0); err != nil {
		return err
	}
	msg, err := group.ProcessInterval()
	if err != nil {
		return err
	}
	if _, err := group.DistributeRekey(msg); err != nil {
		return err
	}
	fmt.Printf("chat room open: %d members, interval 1 rekeyed with %d encryptions\n",
		group.Size(), msg.Cost())

	var evictedLog []ident.ID
	for interval := 2; interval <= 5; interval++ {
		// Someone speaks: data multicast over the same neighbor tables
		// that carry rekey traffic.
		speaker := members[rng.Intn(len(members))]
		res, err := group.MulticastData(speaker, 1)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("message #%d from %v", interval-1, speaker)
		sealed, err := group.SealForGroup([]byte(line))
		if err != nil {
			return err
		}
		readable := 0
		for _, id := range members {
			if _, err := group.OpenAsUser(id, sealed); err == nil {
				readable++
			}
		}
		fmt.Printf("  %v spoke: delivered to %d members in %.0f ms (max), readable by %d/%d\n",
			speaker, len(res.Users), float64(res.Duration)/float64(time.Millisecond),
			readable, len(members))

		// Churn: two members leave, three join.
		for i := 0; i < 2 && len(members) > 4; i++ {
			victim := members[rng.Intn(len(members))]
			if err := group.Leave(victim); err != nil {
				return err
			}
			members = remove(members, victim)
			evictedLog = append(evictedLog, victim)
		}
		if err := join(3, time.Duration(interval)*time.Minute); err != nil {
			return err
		}
		msg, err := group.ProcessInterval()
		if err != nil {
			return err
		}
		rep, err := group.DistributeRekey(msg)
		if err != nil {
			return err
		}
		heaviest := 0
		for _, n := range rep.ForwardedPerUser {
			if n > heaviest {
				heaviest = n
			}
		}
		fmt.Printf("interval %d: %d members, rekey %d encryptions, heaviest forwarder carried %d\n",
			interval, group.Size(), msg.Cost(), heaviest)
	}

	// Every departed member is locked out of current traffic.
	sealed, err := group.SealForGroup([]byte("current-members-only"))
	if err != nil {
		return err
	}
	for _, ev := range evictedLog {
		if _, err := group.OpenAsUser(ev, sealed); err == nil {
			return fmt.Errorf("evicted member %v still reads traffic", ev)
		}
	}
	fmt.Printf("all %d departed members locked out ✓\n", len(evictedLog))
	return nil
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
