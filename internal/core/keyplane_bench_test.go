package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
)

// BenchmarkKeyPlaneRekey is the scale soak's interval without the soak:
// N=20 000 members in base-32 IDs, 1 % churn (200 leaves and 200
// joins), one op one KeyPlane.Rekey at GOMAXPROCS width. us/member and
// allocs/member divide the whole interval (flush, apply, join keyrings)
// by the survivors that applied it. B/member is the world's resident
// heap after the loop (GC-settled HeapAlloc, less the reading before
// the world was built) over N: the member state the intervals leave
// behind.
func BenchmarkKeyPlaneRekey(b *testing.B) {
	const n, churn = 20000, 200
	var empty, before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&empty)
	params := ident.Base32For(n + churn)
	w, err := NewKeyPlane(params, keytree.SeedOf(1), keytree.Opts{CapacityHint: n + churn}, runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	active := make([]ident.ID, n)
	var p keytree.Pending
	for i := range active {
		if active[i], err = ident.FromInt(params, i); err != nil {
			b.Fatal(err)
		}
		p.Join(active[i])
	}
	if _, _, _, _, err := w.Rekey(&p, nil); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var free []ident.ID
	var members int64
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		var p keytree.Pending
		for j := 0; j < churn; j++ {
			k := rng.Intn(len(active))
			p.Leave(active[k])
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		for j := 0; j < churn; j++ {
			if len(free) > 0 {
				p.Join(free[len(free)-1])
				free = free[:len(free)-1]
				continue
			}
			id, err := ident.FromInt(params, n+j)
			if err != nil {
				b.Fatal(err)
			}
			p.Join(id)
		}
		joins, leaves, _, _, err := w.Rekey(&p, active)
		if err != nil {
			b.Fatal(err)
		}
		members += int64(len(active))
		active = append(active, joins...)
		free = append(free, leaves...)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	b.ReportMetric(float64(elapsed.Microseconds())/float64(members), "us/member")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(members), "allocs/member")
	b.ReportMetric((float64(after.HeapAlloc)-float64(empty.HeapAlloc))/n, "B/member")
}
