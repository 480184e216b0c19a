package tmesh

import (
	"testing"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/obs"
)

// TestDuplicateDeliveryCounter drives deliver twice for the same user —
// the Theorem 1 alarm the full transport never trips — and checks the
// tmesh_duplicate_deliveries counter fires once per extra copy.
func TestDuplicateDeliveryCounter(t *testing.T) {
	dir, recs := buildGroup(t, 4, 8, 99)
	reg := obs.New()
	m := &machine[int]{
		cfg: Config[int]{Dir: dir, Obs: reg},
		sim: eventsim.New(),
		res: &Result{Users: make(map[ident.ID]*UserStats)},
	}
	m.dupC = reg.Counter("tmesh_duplicate_deliveries")
	// Level D stops FORWARD (line 2), so deliver exercises only the
	// bookkeeping under test.
	d := dir.Params().Digits
	m.hops = []hop[int]{{toID: recs[0].ID, toHost: recs[0].Host, level: d, fromID: recs[1].ID, fromLevel: d - 1, payload: 1}}
	m.deliver(0, 0)
	if got := reg.Counter("tmesh_duplicate_deliveries").Value(); got != 0 {
		t.Fatalf("counter = %d after first copy, want 0", got)
	}
	m.deliver(0, 0)
	m.deliver(0, 0)
	if got := reg.Counter("tmesh_duplicate_deliveries").Value(); got != 2 {
		t.Fatalf("counter = %d after two duplicates, want 2", got)
	}
	if st := m.res.Users[recs[0].ID]; st.Received != 3 {
		t.Fatalf("Received = %d, want 3", st.Received)
	}
}

// TestMulticastNeverCountsDuplicates: a clean session leaves the alarm
// counter at zero.
func TestMulticastNeverCountsDuplicates(t *testing.T) {
	dir, _ := buildGroup(t, 4, 40, 5)
	reg := obs.New()
	if _, err := Multicast(Config[int]{Dir: dir, Obs: reg}, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tmesh_duplicate_deliveries").Value(); got != 0 {
		t.Fatalf("clean multicast bumped the duplicate counter to %d", got)
	}
}
