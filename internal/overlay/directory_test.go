package overlay

import (
	"math/rand"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// testNet builds a small GT-ITM network for directory tests.
func testNet(t *testing.T, hosts int) vnet.Network {
	t.Helper()
	cfg := vnet.GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     100,
		TotalLinks:       260,
		AccessDelayMin:   1e6,
		AccessDelayMax:   3e6,
	}
	g, err := vnet.NewGTITM(cfg, hosts, 11)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newDir(t *testing.T, k int, hosts int) *Directory {
	t.Helper()
	net := testNet(t, hosts)
	d, err := NewDirectory(tp, k, net, 0) // host 0 is the key server
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func joinN(t *testing.T, d *Directory, n int, rng *rand.Rand) []Record {
	t.Helper()
	used := make(map[ident.ID]bool)
	var recs []Record
	for len(recs) < n {
		v := rng.Intn(tp.Capacity())
		id, err := ident.FromInt(tp, v)
		if err != nil {
			t.Fatal(err)
		}
		if used[id] {
			continue
		}
		used[id] = true
		r := Record{Host: vnet.HostID(1 + len(recs)), ID: id}
		if err := d.Join(r); err != nil {
			t.Fatalf("Join(%v): %v", id, err)
		}
		recs = append(recs, r)
	}
	return recs
}

func TestDirectoryJoinConsistency(t *testing.T) {
	d := newDir(t, 2, 40)
	rng := rand.New(rand.NewSource(5))
	recs := joinN(t, d, 30, rng)
	if d.Size() != 30 {
		t.Fatalf("Size = %d, want 30", d.Size())
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatalf("after joins: %v", err)
	}
	// Duplicate join rejected.
	if err := d.Join(recs[0]); err == nil {
		t.Error("duplicate join should fail")
	}
	// Records and tables retrievable.
	for _, r := range recs {
		if got, ok := d.Record(r.ID); !ok || got.Host != r.Host {
			t.Errorf("Record(%v) = %v,%v", r.ID, got, ok)
		}
		if _, ok := d.TableOf(r.ID); !ok {
			t.Errorf("TableOf(%v) missing", r.ID)
		}
	}
	if _, ok := d.Record(ident.MustNew(tp, []ident.Digit{3, 3, 3})); ok && !used(recs, 63) {
		t.Log("unexpected record present") // tolerated: random IDs may include it
	}
}

func used(recs []Record, n int) bool {
	for _, r := range recs {
		v := 0
		for i := 0; i < r.ID.Len(); i++ {
			v = v*4 + int(r.ID.Digit(i))
		}
		if v == n {
			return true
		}
	}
	return false
}

func TestDirectoryLeaveRefillsEntries(t *testing.T) {
	d := newDir(t, 2, 40)
	rng := rand.New(rand.NewSource(7))
	recs := joinN(t, d, 30, rng)
	// Leave a third of the group, checking K-consistency after each.
	for i := 0; i < 10; i++ {
		if err := d.Leave(recs[i].ID); err != nil {
			t.Fatalf("Leave: %v", err)
		}
		if err := d.CheckConsistency(); err != nil {
			t.Fatalf("after leave %d: %v", i, err)
		}
	}
	if d.Size() != 20 {
		t.Fatalf("Size = %d, want 20", d.Size())
	}
	if err := d.Leave(recs[0].ID); err == nil {
		t.Error("leaving twice should fail")
	}
}

// Property: K-consistency (Definition 3) holds after an arbitrary random
// interleaving of joins and leaves, for several K.
func TestDirectoryRandomChurnKConsistency(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		k := k
		t.Run("", func(t *testing.T) {
			d := newDir(t, k, 70)
			rng := rand.New(rand.NewSource(int64(100 + k)))
			live := make(map[ident.ID]Record)
			nextHost := 1
			for step := 0; step < 120; step++ {
				if len(live) == 0 || rng.Float64() < 0.6 {
					v := rng.Intn(tp.Capacity())
					id, _ := ident.FromInt(tp, v)
					if _, ok := live[id]; ok {
						continue
					}
					r := Record{Host: vnet.HostID(nextHost%69 + 1), ID: id}
					nextHost++
					if err := d.Join(r); err != nil {
						t.Fatalf("step %d join: %v", step, err)
					}
					live[id] = r
				} else {
					// Leave a random live user.
					var victim Record
					n := rng.Intn(len(live))
					for _, r := range live {
						if n == 0 {
							victim = r
							break
						}
						n--
					}
					if err := d.Leave(victim.ID); err != nil {
						t.Fatalf("step %d leave: %v", step, err)
					}
					delete(live, victim.ID)
				}
				if step%10 == 0 {
					if err := d.CheckConsistency(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := d.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirectoryMembersByPrefix(t *testing.T) {
	d := newDir(t, 2, 40)
	ids := [][]ident.Digit{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {2, 0, 0}}
	for i, digits := range ids {
		r := Record{Host: vnet.HostID(i + 1), ID: ident.MustNew(tp, digits)}
		if err := d.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	p0, _ := ident.PrefixOf(tp, []ident.Digit{0})
	if got := d.Members(p0); len(got) != 3 {
		t.Errorf("Members([0]) = %d, want 3", len(got))
	}
	p00, _ := ident.PrefixOf(tp, []ident.Digit{0, 0})
	if got := d.Members(p00); len(got) != 2 {
		t.Errorf("Members([0,0]) = %d, want 2", len(got))
	}
	if got := d.IDs(); len(got) != 4 {
		t.Errorf("IDs = %d, want 4", len(got))
	}
	if d.MaintenanceMessages() == 0 {
		t.Error("maintenance messages should have been counted")
	}
}
