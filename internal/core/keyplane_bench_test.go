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
// behind. On a 2-CPU x86-64 box, median of five 20x runs, it reads
// 1.04 us/member, 2.79 allocs/member and 520 B/member with the keyrings
// in one slab, against 1.43, 2.87 and 565 with a keyring object per
// member and a per-interval encryption index.
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
	for i := range active {
		if active[i], err = ident.FromInt(params, i); err != nil {
			b.Fatal(err)
		}
		w.Join(active[i])
	}
	if _, _, _, _, err := w.Rekey(); err != nil {
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
		for j := 0; j < churn; j++ {
			k := rng.Intn(len(active))
			w.Leave(active[k])
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		for j := 0; j < churn; j++ {
			if len(free) > 0 {
				w.Join(free[len(free)-1])
				free = free[:len(free)-1]
				continue
			}
			id, err := ident.FromInt(params, n+j)
			if err != nil {
				b.Fatal(err)
			}
			w.Join(id)
		}
		joins, leaves, _, _, err := w.Rekey()
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
