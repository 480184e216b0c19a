package split_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tmesh/internal/chaos"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
)

// TestTraceMatchesDeliveries is the flight-recorder ground-truth
// property of the traced rekey multicast — the rung-1 configuration of
// recovery.DistributeLadder, which is what the chaos soak traces: across
// seeds and GOMAXPROCS widths, the delivery set reconstructed from
// non-dropped hop records must equal the transport's own deliveries —
// same users, same forwarding levels, same encryption slices — and the
// trace's own audit and the chaos auditors (Theorems 1 and 2 through
// chaos.TraceEvidence) must come back green. It is an external test so
// that it can import chaos, which imports split.
func TestTraceMatchesDeliveries(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		for _, par := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d,par=%d", seed, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				dir, msg, live := split.NewWorld(t, 40, 6, 6, seed)
				var buf bytes.Buffer
				rec := trace.NewRecorder(seed, obs.NewSink(&buf))
				tr := rec.Begin("rekey", 1, 0, split.PerEncryption.String(), split.EncIDs(msg.Encryptions))
				for _, id := range live {
					tr.Member(id)
				}
				var deliveries []split.Delivery
				_, err := tmesh.Multicast(tmesh.Config[[]keycrypt.Encryption]{
					Dir:      dir,
					SizeOf:   func(encs []keycrypt.Encryption) int { return len(encs) },
					SplitHop: split.HopSplitter(),
					OnDeliver: func(to ident.ID, encs []keycrypt.Encryption, level int) {
						deliveries = append(deliveries, split.Delivery{To: to, Level: level, Encryptions: encs})
					},
					Trace:      tr,
					TraceItems: split.EncIDs,
				}, msg.Encryptions)
				if err != nil {
					t.Fatal(err)
				}
				tr.End(live, true)
				if err := rec.Err(); err != nil {
					t.Fatal(err)
				}

				records, err := trace.ParseRecords(&buf)
				if err != nil {
					t.Fatal(err)
				}
				type arrival struct {
					level int
					items []string
				}
				fromTrace := map[string]arrival{}
				for _, r := range records {
					if r.Kind != "hop" || r.Dropped {
						continue
					}
					if _, dup := fromTrace[r.To]; dup {
						t.Errorf("trace delivered twice to %s", r.To)
					}
					fromTrace[r.To] = arrival{level: r.Level, items: r.Items}
				}
				if len(fromTrace) != len(deliveries) {
					t.Fatalf("trace reconstructs %d deliveries, transport reports %d",
						len(fromTrace), len(deliveries))
				}
				for _, d := range deliveries {
					got, ok := fromTrace[d.To.String()]
					if !ok {
						t.Fatalf("trace has no hop delivering to %s", d.To)
					}
					if got.level != d.Level {
						t.Errorf("user %s: trace level %d, report level %d", d.To, got.level, d.Level)
					}
					want := split.EncIDs(d.Encryptions)
					if len(got.items) != len(want) {
						t.Fatalf("user %s: trace items %v, report %v", d.To, got.items, want)
					}
					for i := range want {
						if got.items[i] != want[i] {
							t.Fatalf("user %s: trace items %v, report %v", d.To, got.items, want)
						}
					}
				}

				groups := trace.Groups(records)
				if len(groups) != 1 {
					t.Fatalf("%d traces, want 1", len(groups))
				}
				a := groups[0].Audit()
				if a.Hops == 0 {
					t.Fatal("vacuous trace: no hops recorded")
				}
				ev, err := chaos.TraceEvidence(groups[0])
				if err != nil {
					t.Fatal(err)
				}
				if ev.Message == nil {
					t.Fatal("per-encryption trace left the evidence's message unset")
				}
				verdicts, _ := chaos.Audit(ev, nil)
				for _, c := range a.Checks {
					for _, v := range c.Violations {
						t.Errorf("%s: %s", c.Name, v)
					}
				}
				for _, v := range verdicts {
					if line := v.Line(); line != "" {
						t.Error(line)
					}
				}
			})
		}
	}
}
