package transport

import (
	"fmt"
	"runtime"
	"testing"
)

// TestIdleEndpointFootprint is the memory ratchet of an idle endpoint
// at the bench's Queue of 4096: GC-settled HeapInuse+StackInuse per
// endpoint, read the way the bench's mem_bytes_per_member is, for a few
// dozen endpoints of each wire (a TCP endpoint with one live peer link,
// so its link goroutine and the peer's read pump count too). A queue's
// storage grows with use, so an idle one holds no slots. Each budget is
// the highest reading over repeated runs, with and without -race, when
// it was set, ×1.25, as in chaos's footprint budget. Goroutine stacks
// make the loopback and TCP readings move by a few KB between runs.
// A queue preallocated to its bound (UDP: 32 B × 4096) fails all three.
func TestIdleEndpointFootprint(t *testing.T) {
	const n, queue = 64, 4096
	for _, tc := range []struct {
		kind   string
		budget float64
	}{
		{"loopback", 7400},
		{"udp", 90300},
		{"tcp", 35700},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			check := guardGoroutines(t)
			before := liveBytes()
			sw := NewSwitch()
			eps := make([]Transport, n)
			for i := range eps {
				cfg := Config{ID: PeerID(fmt.Sprintf("n%d", i)), Queue: queue}
				var err error
				switch tc.kind {
				case "loopback":
					eps[i], err = NewLoopback(sw, cfg)
				case "udp":
					eps[i], err = NewUDP("127.0.0.1:0", cfg)
				case "tcp":
					eps[i], err = NewTCP("127.0.0.1:0", cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if tc.kind == "tcp" {
				for i, e := range eps {
					next := eps[(i+1)%n]
					if err := e.AddPeer(next.ID(), next.Addr()); err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, func() bool {
					for i, e := range eps {
						if st, _ := e.Status(eps[(i+1)%n].ID()); st.State != StateUp {
							return false
						}
					}
					return true
				})
			}
			per := (float64(liveBytes()) - float64(before)) / n
			runtime.KeepAlive(sw)
			for _, e := range eps {
				e.Close()
			}
			check()
			t.Logf("idle %s endpoint: %.0f bytes resident", tc.kind, per)
			if per > tc.budget {
				t.Errorf("idle %s endpoint: %.0f bytes resident exceeds the %.0f budget", tc.kind, per, tc.budget)
			}
		})
	}
}

// liveBytes is HeapInuse+StackInuse after a full collection.
func liveBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse + m.StackInuse
}
