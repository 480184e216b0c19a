package chaos

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/workload"
)

// BenchmarkKeyPlaneRekey is the scale soak's interval without the soak:
// a KeyTenant of N=20 000 members over base-32 host IDs, on the key
// tree the soak runs (NewKeyTenant's refined tree), 1 % churn (200
// leaves and 200 joins, freed hosts first), one op one chaos.Step at
// GOMAXPROCS width, audit included. us/member and allocs/member divide
// the whole interval by the survivors that applied it; encs/op is the
// message's encryptions and keys/member the keys a survivor installs.
// B/member is the world's resident heap after the loop (GC-settled
// HeapAlloc, less the reading before the world was built) over N: the
// member state the intervals leave behind.
func BenchmarkKeyPlaneRekey(b *testing.B) {
	const n, churn = 20000, 200
	var empty, before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&empty)
	tn, err := NewKeyTenant(ident.Base32For(n+churn), keytree.SeedOf(1), keytree.Opts{CapacityHint: n + churn}, runtime.GOMAXPROCS(0), 0)
	if err != nil {
		b.Fatal(err)
	}
	active := make([]int, n)
	events := make([]workload.Event, n)
	for h := range active {
		active[h] = h
		events[h] = workload.Event{Kind: workload.Join, Host: h}
	}
	if _, err := Step(tn, events, 0, nil); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var free, leaves, joins []int
	fresh := n
	var members, encs, keys int64
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		events, leaves, joins = events[:0], leaves[:0], joins[:0]
		for len(leaves) < churn {
			k := rng.Intn(len(active))
			leaves = append(leaves, active[k])
			events = append(events, workload.Event{Kind: workload.Leave, Victim: active[k]})
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		for len(joins) < churn {
			h := fresh
			if len(free) > 0 {
				h, free = free[len(free)-1], free[:len(free)-1]
			} else {
				fresh++
			}
			joins = append(joins, h)
			events = append(events, workload.Event{Kind: workload.Join, Host: h})
		}
		st, err := Step(tn, events, time.Duration(i+1), nil)
		if err != nil {
			b.Fatal(err)
		}
		members += int64(len(active))
		encs += int64(st.Cost)
		keys += tn.Installed
		active = append(active, joins...)
		free = append(free, leaves...)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tn)
	b.ReportMetric(float64(elapsed.Microseconds())/float64(members), "us/member")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(members), "allocs/member")
	b.ReportMetric((float64(after.HeapAlloc)-float64(empty.HeapAlloc))/n, "B/member")
	b.ReportMetric(float64(encs)/float64(b.N), "encs/op")
	b.ReportMetric(float64(keys)/float64(members), "keys/member")
}
