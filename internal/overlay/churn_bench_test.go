package overlay

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// churnTopology is the bench harness's sim_4096 graph (bench/sim.go).
var churnTopology = vnet.GTITMConfig{
	TransitDomains: 4, TransitPerDomain: 4, StubsPerTransit: 3,
	TotalRouters: 600, TotalLinks: 1600,
	AccessDelayMin: 500 * time.Microsecond, AccessDelayMax: 5 * time.Millisecond,
}

// churnWorld is a directory of n members with random IDs on distinct
// hosts, and what it takes to churn it the way the harness does.
type churnWorld struct {
	dir    *Directory
	params ident.Params
	rng    *rand.Rand
	recs   []Record
	free   []vnet.HostID
}

const churnSpare = 16 // hosts beyond n, so a leave-then-join interval never runs dry

// churnNet builds the topology for n members on cfg. Its tables are
// complete once built, so a heap reading taken afterwards sees the
// directory alone.
func churnNet(tb testing.TB, cfg vnet.GTITMConfig, n int) *vnet.GTITM {
	tb.Helper()
	net, err := vnet.NewGTITM(cfg, n+1+churnSpare, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// countNet counts the RTT probes a directory makes. It embeds the
// *vnet.GTITM, so it keeps the stub structure a directory prunes by.
type countNet struct {
	*vnet.GTITM
	probes *int
}

func (c countNet) RTT(a, b vnet.HostID) time.Duration {
	*c.probes++
	return c.GTITM.RTT(a, b)
}

func newChurnWorld(tb testing.TB, net vnet.Network, params ident.Params, k, n int) *churnWorld {
	tb.Helper()
	dir, err := NewDirectory(params, k, net, 0)
	if err != nil {
		tb.Fatal(err)
	}
	w := &churnWorld{dir: dir, params: params, rng: rand.New(rand.NewSource(1))}
	for h := n + churnSpare; h >= 1; h-- {
		w.free = append(w.free, vnet.HostID(h))
	}
	for len(w.recs) < n {
		w.join(tb)
	}
	return w
}

func (w *churnWorld) join(tb testing.TB) {
	id, err := ident.FreeID(w.params, w.rng, func(id ident.ID) bool { _, ok := w.dir.Record(id); return ok })
	if err != nil {
		tb.Fatal(err)
	}
	rec := Record{Host: w.free[len(w.free)-1], ID: id}
	w.free = w.free[:len(w.free)-1]
	if err := w.dir.Join(rec); err != nil {
		tb.Fatal(err)
	}
	w.recs = append(w.recs, rec)
}

func (w *churnWorld) leave(tb testing.TB) {
	i := w.rng.Intn(len(w.recs))
	rec := w.recs[i]
	w.recs[i] = w.recs[len(w.recs)-1]
	w.recs = w.recs[:len(w.recs)-1]
	if err := w.dir.Leave(rec.ID); err != nil {
		tb.Fatal(err)
	}
	w.free = append(w.free, rec.Host)
}

// BenchmarkDirectoryChurn is the bench harness's sim_4096 overlay work
// without the harness: 4096 members, Params{4,64}, K=4; one op is an
// interval's 16 leaves then 16 joins. join_us and leave_us are the
// per-event means the traced ledger calls overlay.join_us and
// overlay.leave_us; probes_per_join and probes_per_leave (RTTs an
// event measures) and holders_visited_per_leave (member tables a leave
// reads) count the stub pruning, deterministic at the seed. It runs on
// the harness's topology and on the paper's 5000-router one.
func BenchmarkDirectoryChurn(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  vnet.GTITMConfig
	}{
		{"sim_4096", churnTopology},
		{"gtitm5000", vnet.DefaultGTITMConfig()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			start := time.Now()
			probes := 0
			w := newChurnWorld(b, countNet{churnNet(b, tc.cfg, 4096), &probes}, ident.Params{Digits: 4, Base: 64}, 4, 4096)
			b.Logf("set-up: topology and 4096 joins in %v", time.Since(start).Round(time.Millisecond))
			const churn = 16
			var joins, leaves time.Duration
			joinProbes, leaveProbes, leaveVisits := 0, 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0, v0, p0 := time.Now(), w.dir.visits, probes
				for j := 0; j < churn; j++ {
					w.leave(b)
				}
				t1, p1, v1 := time.Now(), probes, w.dir.visits
				for j := 0; j < churn; j++ {
					w.join(b)
				}
				leaves += t1.Sub(t0)
				joins += time.Since(t1)
				leaveVisits += v1 - v0
				leaveProbes += p1 - p0
				joinProbes += probes - p1
			}
			events := float64(b.N * churn)
			b.ReportMetric(float64(joins.Microseconds())/events, "join_us")
			b.ReportMetric(float64(leaves.Microseconds())/events, "leave_us")
			b.ReportMetric(float64(joinProbes)/events, "probes_per_join")
			b.ReportMetric(float64(leaveProbes)/events, "probes_per_leave")
			b.ReportMetric(float64(leaveVisits)/events, "holders_visited_per_leave")
		})
	}
}

// TestJoinProbesAQuarterOfTheMembers pins the stub pruning where it
// pays: in BenchmarkDirectoryChurn's world (4096 members, the sim_4096
// graph) an interval's joins measure the RTT to at most a quarter of
// the members each, so a silent fallback to the scan, which measures
// every member, fails here.
func TestJoinProbesAQuarterOfTheMembers(t *testing.T) {
	const n, churn = 4096, 16
	probes := 0
	w := newChurnWorld(t, countNet{churnNet(t, churnTopology, n), &probes}, ident.Params{Digits: 4, Base: 64}, 4, n)
	t.Logf("set-up: %d probes per join", probes/n)
	for range churn {
		w.leave(t)
	}
	before := probes
	for range churn {
		w.join(t)
	}
	if per := (probes - before) / churn; per > n/4 {
		t.Errorf("a join probes %d of %d members, want at most a quarter", per, n)
	} else {
		t.Logf("a join probes %d of %d members", per, n)
	}
}

// TestLeaveProbesAQuarterOfTheScan pins the refill's pruning in the
// same world: when every holder of a leaver probed every candidate of
// its subtree, these 16 leaves measured 16 057 RTTs a leave. A refill that
// reads candidates nearest first measures at most a quarter of that, so
// a silent fallback to the scan fails here.
func TestLeaveProbesAQuarterOfTheScan(t *testing.T) {
	const n, churn, scan = 4096, 16, 16057
	probes := 0
	w := newChurnWorld(t, countNet{churnNet(t, churnTopology, n), &probes}, ident.Params{Digits: 4, Base: 64}, 4, n)
	before := probes
	for range churn {
		w.leave(t)
	}
	if per := (probes - before) / churn; per > scan/4 {
		t.Errorf("a leave probes %d RTTs, want at most a quarter of the scan's %d", per, scan)
	} else {
		t.Logf("a leave probes %d RTTs, the scan %d", per, scan)
	}
}

// TestDirectoryFootprint is the overlay's memory gate, in the style of
// chaos.TestMemberFootprintBudget: live heap per member of a bare
// directory (tables, roster, row-0 column store, ID tree; no key
// plane), read after the build and again after ten of
// BenchmarkDirectoryChurn's intervals (16 leaves, then 16 joins), so
// that windows churn empties and rows' spare capacity count. Row 0 is
// B×K 8-byte slots of the column store, which grows by exact 64-rank
// chunks (both sizes here fill their last one); a deeper row stores
// only its populated windows.
func TestDirectoryFootprint(t *testing.T) {
	for _, tc := range []struct {
		params ident.Params
		n      int
		budget uint64 // bytes per member
	}{
		// The readings plus about 12 %: 3 931 and 9 094 after churn.
		{ident.Params{Digits: 4, Base: 64}, 4096, 4400},
		{ident.DefaultParams, 1024, 10 << 10},
	} {
		net := churnNet(t, churnTopology, tc.n)
		var before runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		read := func(when string) {
			var after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := (after.HeapAlloc - before.HeapAlloc) / uint64(tc.n)
			t.Logf("%+v N=%d %s: %d B/member", tc.params, tc.n, when, per)
			if per > tc.budget {
				t.Errorf("%+v N=%d %s: %d B/member of directory heap, budget %d", tc.params, tc.n, when, per, tc.budget)
			}
		}
		w := newChurnWorld(t, net, tc.params, 4, tc.n)
		read("built")
		for range 10 {
			for range 16 {
				w.leave(t)
			}
			for range 16 {
				w.join(t)
			}
		}
		read("churned")
		runtime.KeepAlive(w)
	}
}
