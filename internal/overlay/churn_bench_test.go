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
	SPTCacheCap: -1,
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

// churnNet builds the topology for n members with every shortest-path
// tree already computed, so that a heap reading taken afterwards sees
// the directory alone.
func churnNet(tb testing.TB, n int) vnet.Network {
	tb.Helper()
	net, err := vnet.NewGTITM(churnTopology, n+1+churnSpare, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for h := 0; h < net.NumHosts(); h++ {
		net.RTT(vnet.HostID(h), 0)
	}
	return net
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
// without the harness: 4096 members, Params{4,64}, K=4, its topology;
// one op is an interval's 16 leaves then 16 joins. join_us and leave_us
// are the per-event means the traced ledger calls overlay.join_us and
// overlay.leave_us.
func BenchmarkDirectoryChurn(b *testing.B) {
	net := churnNet(b, 4096)
	start := time.Now()
	w := newChurnWorld(b, net, ident.Params{Digits: 4, Base: 64}, 4, 4096)
	b.Logf("set-up: 4096 joins in %v", time.Since(start).Round(time.Millisecond))
	const churn = 16
	var joins, leaves time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		for j := 0; j < churn; j++ {
			w.leave(b)
		}
		t1 := time.Now()
		for j := 0; j < churn; j++ {
			w.join(b)
		}
		leaves += t1.Sub(t0)
		joins += time.Since(t1)
	}
	events := float64(b.N * churn)
	b.ReportMetric(float64(joins.Microseconds())/events, "join_us")
	b.ReportMetric(float64(leaves.Microseconds())/events, "leave_us")
}

// TestDirectoryFootprint is the overlay's memory gate, in the style of
// chaos.TestMemberFootprintBudget: live heap per member of a bare
// directory (tables, roster, ID tree; no key plane). A row block is
// allocated on its first insert; a layout that went dense (D×B×K slots
// per member) would read 16 KB at {4,64} and 80 KB at DefaultParams.
func TestDirectoryFootprint(t *testing.T) {
	for _, tc := range []struct {
		params ident.Params
		n      int
		budget uint64 // bytes per member
	}{
		{ident.Params{Digits: 4, Base: 64}, 4096, 13 << 10},
		{ident.DefaultParams, 1024, 40 << 10},
	} {
		net := churnNet(t, tc.n)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := newChurnWorld(t, net, tc.params, 4, tc.n)
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := (after.HeapAlloc - before.HeapAlloc) / uint64(tc.n)
		t.Logf("%+v N=%d: %d B/member", tc.params, tc.n, per)
		if per > tc.budget {
			t.Errorf("%+v N=%d: %d B/member of directory heap, budget %d", tc.params, tc.n, per, tc.budget)
		}
		runtime.KeepAlive(w)
	}
}
