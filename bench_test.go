// Package tmesh's root benchmark harness: one benchmark per evaluation
// figure (scaled down so `go test -bench=.` completes in minutes; the
// cmd/rekeysim tool runs the full paper-scale versions), plus
// micro-benchmarks of the hot paths.
package tmesh

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/exp"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/lkh"
	"tmesh/internal/nice"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// benchAssign is a reduced ID space that keeps benchmark setup fast while
// preserving the protocol structure.
func benchAssign() assign.Config {
	return assign.Config{
		Params:        ident.Params{Digits: 4, Base: 64},
		Thresholds:    []time.Duration{150 * time.Millisecond, 30 * time.Millisecond, 9 * time.Millisecond},
		Percentile:    90,
		CollectTarget: 8,
	}
}

func benchLatency(b *testing.B, cfg exp.LatencyConfig) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := exp.RunLatency(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06RekeyLatencyPlanetLab(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.PlanetLab, Joins: 64, Runs: 1, Points: 10, Assign: benchAssign(),
	})
}

func BenchmarkFig07RekeyLatencyGTITM256(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 96, Runs: 1, Points: 10, Assign: benchAssign(),
	})
}

func BenchmarkFig08RekeyLatencyGTITM1024(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 192, Runs: 1, Points: 10, Assign: benchAssign(),
	})
}

// --- Sequential-vs-parallel pairs for the run-level fan-out ---
//
// Compare with `go test -bench 'Fig0[68].*Runs' -benchtime=1x`. Width is
// GOMAXPROCS (internal/work), so the sequential variants pin it to 1 and
// the parallel ones to 8 for the timed section. The parallel variants
// first assert that a reduced-size execution reproduces the sequential
// series exactly. Speedup requires more than one CPU.

func fig06RunsConfig() exp.LatencyConfig {
	return exp.LatencyConfig{
		Topology: exp.PlanetLab, Joins: 48, Runs: 100, Points: 10,
		Assign: benchAssign(),
	}
}

func fig08RunsConfig() exp.LatencyConfig {
	return exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 96, Runs: 8, Points: 10,
		Assign: benchAssign(),
	}
}

// benchLatencyAt times cfg with the fan-out width pinned to procs.
func benchLatencyAt(b *testing.B, procs int, cfg exp.LatencyConfig) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	benchLatency(b, cfg)
}

// assertParallelMatchesSequential verifies the determinism guarantee on
// a reduced run count before the timed section starts.
func assertParallelMatchesSequential(b *testing.B, cfg exp.LatencyConfig) {
	b.Helper()
	cfg.Runs = 8
	cfg.Seed = 1
	at := func(procs int) *exp.LatencyResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := exp.RunLatency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(at(1).Series, at(8).Series) {
		b.Fatal("parallel series differ from sequential output")
	}
}

func BenchmarkFig06Sequential100Runs(b *testing.B) {
	benchLatencyAt(b, 1, fig06RunsConfig())
}

func BenchmarkFig06Parallel100Runs(b *testing.B) {
	assertParallelMatchesSequential(b, fig06RunsConfig())
	b.ResetTimer()
	benchLatencyAt(b, 8, fig06RunsConfig())
}

func BenchmarkFig08Sequential8Runs(b *testing.B) {
	benchLatencyAt(b, 1, fig08RunsConfig())
}

func BenchmarkFig08Parallel8Runs(b *testing.B) {
	assertParallelMatchesSequential(b, fig08RunsConfig())
	b.ResetTimer()
	benchLatencyAt(b, 8, fig08RunsConfig())
}

func BenchmarkFig09DataLatencyPlanetLab(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.PlanetLab, Joins: 64, Runs: 1, Points: 10, Assign: benchAssign(),
		DataTransport: true,
	})
}

func BenchmarkFig10DataLatencyGTITM256(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 96, Runs: 1, Points: 10, Assign: benchAssign(),
		DataTransport: true,
	})
}

func BenchmarkFig11DataLatencyGTITM1024(b *testing.B) {
	benchLatency(b, exp.LatencyConfig{
		Topology: exp.GTITM, Joins: 192, Runs: 1, Points: 10, Assign: benchAssign(),
		DataTransport: true,
	})
}

func BenchmarkFig12RekeyCostGrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunRekeyCost(exp.RekeyCostConfig{
			N:       128,
			JValues: []int{0, 32, 64},
			LValues: []int{0, 32, 64},
			Runs:    1,
			Assign:  benchAssign(),
			Seed:    int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13BandwidthSevenProtocols(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunBandwidth(exp.BandwidthConfig{
			N: 128, ChurnJoins: 32, ChurnLeaves: 32,
			Assign: benchAssign(), Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14ThresholdSweep(b *testing.B) {
	variants := []exp.ThresholdVariant{
		{Name: "A", Digits: 4, Base: 64, Thresholds: []time.Duration{150e6, 30e6, 9e6}},
		{Name: "B", Digits: 3, Base: 64, Thresholds: []time.Duration{150e6, 9e6}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunThresholdSweep(48, 1, int64(i+1), variants); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinCostSec31(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunJoinCost(exp.JoinCostConfig{
			GroupSizes: []int{32, 128},
			Samples:    4,
			Assign:     benchAssign(),
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScrambledIDs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunIDAblation(exp.AblationConfig{
			N: 96, ChurnJoins: 16, ChurnLeaves: 16,
			Assign: benchAssign(), Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketSplitSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunPacketSweep(exp.AblationConfig{
			N: 96, ChurnLeaves: 16, Assign: benchAssign(), Seed: int64(i + 1),
		}, []int{5, 25})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLossRecoverySweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunLossSweep(exp.AblationConfig{
			N: 96, ChurnLeaves: 12, Assign: benchAssign(), Seed: int64(i + 1),
		}, []float64{0.05, 0.2})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGNPComparison(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunGNPComparison(64, int64(i+1), benchAssign()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCongestionThreeScenarios(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := exp.RunCongestion(exp.CongestionConfig{
			N: 96, ChurnLeaves: 24, Assign: benchAssign(), Seed: int64(i + 1),
			UplinkBytesPerSecond: 40000,
			DataFrameUnits:       2,
			Frames:               10,
			FrameSpacing:         200 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the building blocks ---

// benchGroup builds a reusable directory of n users for transport
// benchmarks.
func benchGroup(b *testing.B, n int) (*overlay.Directory, []overlay.Record) {
	b.Helper()
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), n+1, 1)
	if err != nil {
		b.Fatal(err)
	}
	acfg := benchAssign()
	dir, err := overlay.NewDirectory(acfg.Params, 4, net, 0)
	if err != nil {
		b.Fatal(err)
	}
	assigner, err := assign.New(acfg, dir, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]overlay.Record, 0, n)
	for h := 1; h <= n; h++ {
		id, _, err := assigner.AssignID(vnet.HostID(h))
		if err != nil {
			b.Fatal(err)
		}
		rec := overlay.Record{Host: vnet.HostID(h), ID: id}
		if err := dir.Join(rec); err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return dir, recs
}

func BenchmarkTmeshMulticast256(b *testing.B) {
	dir, _ := benchGroup(b, 256)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tmesh.Multicast(tmesh.Config[int]{Dir: dir, SenderIsServer: true}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Users) != 256 {
			b.Fatalf("delivered to %d users", len(res.Users))
		}
	}
}

func BenchmarkRekeySplitting256(b *testing.B) {
	dir, recs := benchGroup(b, 256)
	tree, err := keytree.New(benchAssign().Params, []byte("bench"), keytree.Opts{})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]ident.ID, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	if _, err := tree.Batch(ids[32:], nil); err != nil {
		b.Fatal(err)
	}
	msg, err := tree.Batch(ids[:32], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := split.Rekey(dir, msg, split.Options{Mode: split.PerEncryption}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModifiedKeyTreeBatch(b *testing.B) {
	params := ident.Params{Digits: 5, Base: 256}
	rng := rand.New(rand.NewSource(1))
	base := make([]ident.ID, 0, 1024)
	used := make(map[int]bool)
	for len(base) < 1024 {
		v := rng.Intn(1 << 20)
		if used[v] {
			continue
		}
		used[v] = true
		id, err := ident.FromInt(params, v)
		if err != nil {
			b.Fatal(err)
		}
		base = append(base, id)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, err := keytree.New(params, []byte("bench"), keytree.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tree.Batch(base[64:], nil); err != nil {
			b.Fatal(err)
		}
		msg, err := tree.Batch(base[:64], nil)
		if err != nil {
			b.Fatal(err)
		}
		if msg.Cost() == 0 {
			b.Fatal("empty rekey message")
		}
	}
}

func BenchmarkOriginalKeyTreeBatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree, users, err := lkh.NewFullBalanced(4, 1024)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tree.Batch(64, users[:64]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAESKeyWrap(b *testing.B) {
	kek := keycrypt.DeriveKey([]byte("bench"), "kek")
	nk := keycrypt.DeriveKey([]byte("bench"), "new")
	pfx, err := ident.PrefixOf(ident.DefaultParams, []ident.Digit{1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := keycrypt.Wrap(kek, pfx, nk, ident.EmptyPrefix, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := keycrypt.Unwrap(kek, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNICEJoin256(b *testing.B) {
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), 257, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := nice.New(net, nice.DefaultK)
		if err != nil {
			b.Fatal(err)
		}
		for h := 1; h <= 256; h++ {
			if err := p.Join(vnet.HostID(h)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGTITMDijkstra(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		// Force shortest-path computation from every host's gateway.
		for h := 1; h < 32; h++ {
			_ = net.GatewayRTT(0, vnet.HostID(h))
		}
	}
}
