// Quickstart: build a 64-user secure multicast group, run one rekey
// interval, and verify every user can decrypt traffic sealed with the
// group key — end to end with real AES-GCM key wrapping.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
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
	const users = 64

	// The underlying network: the paper's 5000-router GT-ITM
	// transit-stub topology; host 0 is the key server.
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), users+1, 42)
	if err != nil {
		return err
	}

	group, err := core.NewGroup(core.Config{
		Net:        net,
		ServerHost: 0,
		Seed:       42,
		Assign: assign.Config{
			// A compact ID space for a small demo group; the paper's
			// default is D=5, B=256.
			Params:        ident.Params{Digits: 4, Base: 64},
			Thresholds:    []time.Duration{150e6, 30e6, 9e6},
			Percentile:    90,
			CollectTarget: 10,
		},
	})
	if err != nil {
		return err
	}

	// Users join: each runs the distributed topology-aware ID
	// assignment protocol of Section 3.1.
	fmt.Printf("joining %d users...\n", users)
	var members []ident.ID
	for h := 1; h <= users; h++ {
		id, stats, err := group.Join(vnet.HostID(h), time.Duration(h)*time.Second)
		if err != nil {
			return fmt.Errorf("join host %d: %w", h, err)
		}
		if h <= 3 {
			fmt.Printf("  host %-3d -> ID %-18v (%d protocol messages)\n", h, id, stats.Messages)
		}
		members = append(members, id)
	}

	// End of the rekey interval: the key server batches the joins,
	// updates the modified key tree, and generates the rekey message.
	msg, err := group.ProcessInterval()
	if err != nil {
		return err
	}
	fmt.Printf("rekey message: %d encryptions for %d users\n", msg.Cost(), group.Size())

	// The message is multicast over the T-mesh with per-encryption
	// splitting: each user receives only what it needs (Theorem 2).
	rep, err := group.DistributeRekey(msg)
	if err != nil {
		return err
	}
	max, total := 0, 0
	for _, n := range rep.ReceivedPerUser {
		total += n
		if n > max {
			max = n
		}
	}
	fmt.Printf("splitting: avg %.1f encryptions received per user (max %d) vs %d without splitting\n",
		float64(total)/float64(users), max, msg.Cost())

	// Application traffic sealed with the group key is readable by
	// every member.
	sealed, err := group.SealForGroup([]byte("welcome to the group"))
	if err != nil {
		return err
	}
	for _, id := range members {
		pt, err := group.OpenAsUser(id, sealed)
		if err != nil {
			return fmt.Errorf("user %v cannot decrypt: %w", id, err)
		}
		_ = pt
	}
	fmt.Printf("all %d users decrypted the group message ✓\n", users)

	// One user leaves; after the next interval it is locked out.
	evicted := members[7]
	if err := group.Leave(evicted); err != nil {
		return err
	}
	msg, err = group.ProcessInterval()
	if err != nil {
		return err
	}
	if _, err := group.DistributeRekey(msg); err != nil {
		return err
	}
	sealed, err = group.SealForGroup([]byte("post-departure secret"))
	if err != nil {
		return err
	}
	if _, err := group.OpenAsUser(evicted, sealed); err == nil {
		return fmt.Errorf("evicted user still reads group traffic")
	}
	fmt.Printf("departed user %v can no longer decrypt (forward secrecy) ✓\n", evicted)
	return nil
}
