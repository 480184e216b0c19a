package exp

import (
	"slices"
	"testing"

	"tmesh/internal/assign"
	"tmesh/internal/chaos"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
)

// auditWorld runs the soak auditors over ev: any violation fails, and so
// does an NA verdict (an auditor the evidence gave nothing to read) for
// an auditor named in required.
func auditWorld(t *testing.T, name string, ev *chaos.Evidence, required ...string) {
	t.Helper()
	verdicts, _ := chaos.Audit(ev, nil)
	for _, v := range verdicts {
		if line := v.Line(); line != "" {
			t.Errorf("%s: %s", name, line)
		}
		if v.NA && slices.Contains(required, v.Name) {
			t.Errorf("%s: %s read nothing", name, v.Name)
		}
	}
}

// deliveryEvidence splits msg per encryption over dir, fault-free, and
// returns the evidence Definition 3 and Theorems 1–2 are checked on:
// the directory, every hop, the message, and each member's copy count.
func deliveryEvidence(t *testing.T, dir *overlay.Directory, msg *keytree.Message) *chaos.Evidence {
	t.Helper()
	rep, err := split.Rekey(dir, msg, split.Options{Mode: split.PerEncryption, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	ev := &chaos.Evidence{Dir: dir, Hops: rep.Deliveries, Message: msg.Encryptions, FaultFree: true}
	copies := make(map[string]int)
	for _, d := range rep.Deliveries {
		copies[d.To.Key()]++
	}
	for _, id := range dir.IDs() {
		ev.Copies = append(ev.Copies, chaos.Copy{ID: id, N: copies[id.Key()]})
	}
	return ev
}

// TestFigureWorldsAudit builds every T-mesh figure's world at its golden
// configuration (the numbers `rekeysim <figure> -scale 0.1 -seed 1`
// derives), through the function the figure's runner calls, and audits
// it: every directory must be K-consistent (Definition 3), and each
// churn world must deliver its interval's rekey message as Theorems 1–2
// say. A figure can then never come from a world that violates them.
func TestFigureWorldsAudit(t *testing.T) {
	const kc, delivery = "k-consistency", "delivery"

	t.Run("latency", func(t *testing.T) {
		figures := map[string]LatencyConfig{
			// fig9 builds fig6's worlds and only then draws its sender.
			"fig6": {Topology: PlanetLab, Joins: 22, Runs: 10, Seed: 1},
			"fig7": {Topology: GTITM, Joins: 25, Runs: 1, Seed: 1},
		}
		for _, v := range PaperThresholdVariants() {
			figures["fig14 "+v.Name] = v.latencyConfig(22, 1, 1)
		}
		for name, cfg := range figures {
			for run := 0; run < cfg.Runs; run++ {
				w, _, err := latencyWorld(cfg, run)
				if err != nil {
					t.Fatalf("%s run %d: %v", name, run, err)
				}
				auditWorld(t, name, &chaos.Evidence{Dir: w.dir}, kc)
			}
		}
	})

	t.Run("fig12", func(t *testing.T) {
		grid := []int{0, 25, 50, 75, 100}
		cfg := RekeyCostConfig{N: 102, JValues: grid, LValues: grid, Runs: 1, Seed: 1}
		w, err := runRekeyCostOnce(cfg, cfg.Seed, newCostCells(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if w.dir.Size() != cfg.N {
			t.Errorf("after the rollbacks the directory holds %d members, want %d", w.dir.Size(), cfg.N)
		}
		auditWorld(t, "fig12", &chaos.Evidence{Dir: w.dir}, kc)
	})

	t.Run("fig13", func(t *testing.T) {
		w, err := buildBandwidthWorld(BandwidthConfig{N: 102, ChurnJoins: 25, ChurnLeaves: 25, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		auditWorld(t, "fig13", deliveryEvidence(t, w.dir, w.modMsg), kc, delivery)
	})

	t.Run("joincost", func(t *testing.T) {
		_, w, err := joinCost(JoinCostConfig{GroupSizes: []int{4, 6, 12, 25, 51, 102}, Samples: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		auditWorld(t, "joincost", &chaos.Evidence{Dir: w.dir}, kc)
	})

	t.Run("gnp", func(t *testing.T) {
		net, err := buildNetwork(PlanetLab, 23, 1)
		if err != nil {
			t.Fatal(err)
		}
		dir, _, err := distributedWorld(net, 22, 1, assign.Config{})
		if err != nil {
			t.Fatal(err)
		}
		auditWorld(t, "gnp distributed", &chaos.Evidence{Dir: dir}, kc)
	})

	t.Run("churn", func(t *testing.T) {
		w, scrambled, msg, err := idAblationWorlds(AblationConfig{N: 51, ChurnJoins: 12, ChurnLeaves: 12, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		auditWorld(t, "ablation", deliveryEvidence(t, w.dir, msg), kc, delivery)
		auditWorld(t, "ablation scrambled", &chaos.Evidence{Dir: scrambled}, kc)

		for _, c := range []struct {
			name     string
			leaves   int
			treeSeed string
		}{{"packets", 12, "pkt"}, {"loss", 6, "loss"}, {"congestion", 12, "congestion"}} {
			w, err := newChurnWorld(assign.Config{}, 0, 1, 51, 0)
			if err != nil {
				t.Fatal(err)
			}
			msg, err := w.churn(51, c.leaves, c.treeSeed)
			if err != nil {
				t.Fatal(err)
			}
			auditWorld(t, c.name, deliveryEvidence(t, w.dir, msg), kc, delivery)
		}
	})
}
