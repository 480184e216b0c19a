package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/vnet"
)

// This file keeps the refill the directory used before the one-pass
// selector — materialise the subtree, sort all of it by RTT, insert in
// order until the entry is full — as a reference model, and drives it
// and the real Directory through the same random event scripts. Ties are
// ordered (RTT, ID): the candidates arrive in ID order and the sort is
// stable.

// refRefill is the sort-everything refill, for a user table entry or
// (insert = the server table's) a key-server entry.
func refRefill(d *Directory, e *Entry, insert func(Neighbor) bool, from vnet.HostID, subtree ident.Prefix, alive func(ident.ID) bool) {
	if e.Len() >= d.k {
		return
	}
	cands := d.Members(subtree)
	sort.SliceStable(cands, func(i, j int) bool {
		return d.net.RTT(from, cands[i].Host) < d.net.RTT(from, cands[j].Host)
	})
	for _, c := range cands {
		if e.Len() >= d.k {
			break
		}
		if (alive != nil && !alive(c.ID)) || !d.isAlive(c.ID) {
			continue
		}
		if insert(Neighbor{Record: c, RTT: d.net.RTT(from, c.Host)}) {
			d.maintenanceMessages++
		}
	}
}

func refRefillUser(d *Directory, t *Table, row int, col ident.Digit, alive func(ident.ID) bool) {
	refRefill(d, t.Entry(row, col), t.Insert, t.owner.Host, t.owner.ID.Prefix(row).Child(col), alive)
}

func refRefillServer(d *Directory, j ident.Digit) {
	refRefill(d, d.server.Entry(j), d.server.Insert, d.server.Host(), ident.EmptyPrefix.Child(j), nil)
}

// refDrop is the bookkeeping Leave, Fail and Evict share.
func refDrop(d *Directory, id ident.ID) error {
	if _, ok := d.records[id.Key()]; !ok {
		return fmt.Errorf("unknown user %v", id)
	}
	delete(d.records, id.Key())
	delete(d.tables, id.Key())
	if err := d.tree.Remove(id); err != nil {
		return err
	}
	if d.server.Remove(id) {
		d.maintenanceMessages++
		refRefillServer(d, id.Digit(0))
	}
	return nil
}

func refLeave(d *Directory, id ident.ID) error {
	if err := refDrop(d, id); err != nil {
		return err
	}
	for _, t := range d.tables {
		if row, col, ok := t.Remove(id); ok {
			d.maintenanceMessages++
			refRefillUser(d, t, row, col, nil)
		}
	}
	return nil
}

func refEvict(d *Directory, id ident.ID) error {
	if err := refDrop(d, id); err != nil {
		return err
	}
	for _, t := range d.tables {
		if l := t.owner.ID.CommonPrefixLen(id); l < d.params.Digits {
			refRefillUser(d, t, l, id.Digit(l), nil)
		}
	}
	refRefillServer(d, id.Digit(0))
	return nil
}

func refRepair(d *Directory, owner ident.ID, row int, col ident.Digit, alive func(ident.ID) bool) {
	if t, ok := d.tables[owner.Key()]; ok {
		refRefillUser(d, t, row, col, alive)
	}
}

// tieNet is a delay oracle with three distinct RTT values, so most
// comparisons a refill makes are ties.
type tieNet struct{ vnet.Network }

func (tieNet) RTT(a, b vnet.HostID) time.Duration {
	if a == b {
		return 0
	}
	return time.Duration(1+(int(a)*int(b)+int(a)+int(b))%3) * time.Millisecond
}

// spikeNet scales every RTT by a factor the script changes, as the chaos
// soak's delay spikes do: entries then hold RTTs measured under
// different factors, which a refill re-measures.
type spikeNet struct {
	vnet.Network
	factor *int
}

func (s spikeNet) RTT(a, b vnet.HostID) time.Duration {
	return s.Network.RTT(a, b) * time.Duration(*s.factor)
}

func copyTable(t *Table) *Table {
	c := *t
	c.rows = make([][]Entry, len(t.rows))
	for i, row := range t.rows {
		c.rows[i] = make([]Entry, len(row))
		for j := range row {
			c.rows[i][j].neighbors = append([]Neighbor(nil), row[j].neighbors...)
		}
	}
	return &c
}

// sameTables reports the first difference between two directories'
// tables (every entry, neighbor by neighbor) and server tables.
func sameTables(got, want *Directory) error {
	if len(got.tables) != len(want.tables) {
		return fmt.Errorf("%d tables, reference has %d", len(got.tables), len(want.tables))
	}
	sameEntry := func(g, w *Entry) error {
		if !slices.Equal(g.Neighbors(), w.Neighbors()) {
			return fmt.Errorf("%v, reference %v", g.Neighbors(), w.Neighbors())
		}
		return nil
	}
	for key, wt := range want.tables {
		gt, ok := got.tables[key]
		if !ok {
			return fmt.Errorf("no table for %v", wt.owner.ID)
		}
		for i := range wt.rows {
			for j := range wt.rows[i] {
				if err := sameEntry(&gt.rows[i][j], &wt.rows[i][j]); err != nil {
					return fmt.Errorf("%v (%d,%d): %w", wt.owner.ID, i, j, err)
				}
			}
		}
	}
	for j := range want.server.entries {
		if err := sameEntry(&got.server.entries[j], &want.server.entries[j]); err != nil {
			return fmt.Errorf("server (0,%d): %w", j, err)
		}
	}
	return nil
}

// TestRefillMatchesSortEverythingReference runs random Join / Leave /
// Fail / crash-evict-repair scripts, with a liveness oracle that flips
// mid-script, through the Directory and through the reference model, and
// requires identical tables after every event and K-consistency at
// every quiescent point (no user crashed but not yet evicted).
func TestRefillMatchesSortEverythingReference(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 6}
	const hosts, k, events = 400, 3, 500
	factor := 1
	nets := map[string]vnet.Network{
		"gtitm": testNet(t, hosts),
		"ties":  tieNet{testNet(t, hosts)},
		"spike": spikeNet{testNet(t, hosts), &factor},
	}
	for name, net := range nets {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dead := map[string]bool{}
				alive := func(id ident.ID) bool { return !dead[id.Key()] }
				// suspect is the extra per-repair predicate failure
				// recovery passes: it learns of a crash at once, the
				// directory's own oracle one event later.
				suspected := map[string]bool{}
				suspect := func(id ident.ID) bool { return !suspected[id.Key()] }

				got, err := NewDirectory(params, k, net, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := NewDirectory(params, k, net, 0)
				got.SetLivenessOracle(alive)
				want.SetLivenessOracle(alive)

				var members []ident.ID
				nextHost := 1
				join := func() {
					id, _ := ident.FromInt(params, rng.Intn(params.Capacity()))
					if _, ok := got.Record(id); ok {
						return
					}
					r := Record{Host: vnet.HostID(nextHost%(hosts-1) + 1), ID: id}
					nextHost++
					if err := got.Join(r); err != nil {
						t.Fatal(err)
					}
					if err := want.Join(r); err != nil {
						t.Fatal(err)
					}
					// A joiner's table is built in map order, so under
					// ties two directories may keep different equals;
					// that is Join's business, not the refill's.
					want.tables[id.Key()] = copyTable(got.tables[id.Key()])
					members = append(members, id)
				}
				pick := func() ident.ID {
					i := rng.Intn(len(members))
					id := members[i]
					members = append(members[:i], members[i+1:]...)
					return id
				}
				check := func(ev int, what string) {
					t.Helper()
					if err := sameTables(got, want); err != nil {
						t.Fatalf("event %d (%s): %v", ev, what, err)
					}
					if len(suspected) == 0 {
						if err := got.CheckConsistency(); err != nil {
							t.Fatalf("event %d (%s): %v", ev, what, err)
						}
					}
				}
				for len(members) < 120 {
					join()
				}
				check(0, "build")

				var crashed []ident.ID // crashed, still members
				crash := func() {
					id := pick()
					suspected[id.Key()] = true
					crashed = append(crashed, id)
				}
				for ev := 1; ev <= events; ev++ {
					for _, id := range crashed {
						dead[id.Key()] = true
					}
					factor = 1 + ev/100%3 // only spikeNet reads it
					what := "join"
					switch p := rng.Float64(); {
					case p < 0.35 || len(members) < 60:
						join()
					case p < 0.55:
						what = "leave"
						id := pick()
						if got.Leave(id) != nil || refLeave(want, id) != nil {
							t.Fatalf("event %d: leave %v failed", ev, id)
						}
					case p < 0.65:
						what = "fail"
						id := pick()
						if got.Fail(id) != nil || refLeave(want, id) != nil {
							t.Fatalf("event %d: fail %v failed", ev, id)
						}
					case p < 0.8:
						what = "crash"
						crash()
					case len(crashed) > 0:
						// Detection: the server evicts, then every holder
						// drops the dead neighbor and repairs the entry.
						what = "evict+repair"
						id := crashed[0]
						crashed = crashed[1:]
						if got.Evict(id) != nil || refEvict(want, id) != nil {
							t.Fatalf("event %d: evict %v failed", ev, id)
						}
						check(ev, "evict")
						if rng.Intn(2) == 0 {
							crash() // mid-recovery: only suspect knows yet
						}
						for _, owner := range got.Holders(id) {
							row, col, ok := got.RemoveNeighbor(owner, id)
							wrow, wcol, wok := want.RemoveNeighbor(owner, id)
							if !ok || row != wrow || col != wcol || ok != wok {
								t.Fatalf("event %d: RemoveNeighbor(%v, %v) = %d,%d,%v, reference %d,%d,%v",
									ev, owner, id, row, col, ok, wrow, wcol, wok)
							}
							got.RepairEntryLive(owner, row, col, suspect)
							refRepair(want, owner, row, col, suspect)
						}
						delete(dead, id.Key())
						delete(suspected, id.Key())
					default:
						join()
					}
					check(ev, what)
				}
			})
		}
	}
}

// TestMaintenanceMessagesDeterministic: the message estimate must not
// depend on the order Go happens to iterate the directory's maps in.
func TestMaintenanceMessagesDeterministic(t *testing.T) {
	run := func() int {
		d := newDir(t, 2, 80)
		rng := rand.New(rand.NewSource(17))
		recs := joinN(t, d, 60, rng)
		for i := 0; i < 20; i++ {
			if err := d.Leave(recs[i].ID); err != nil {
				t.Fatal(err)
			}
		}
		return d.MaintenanceMessages()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if again := run(); again != first {
			t.Fatalf("same-seed directories report %d and %d maintenance messages", first, again)
		}
	}
}

// TestEntryInsertMatchesStableSort pins the entry order to what a stable
// sort of the whole entry after every change yields, and the full-entry
// insert to zero allocations.
func TestEntryInsertMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	params := ident.Params{Digits: 2, Base: 8}
	for k := 1; k <= 5; k++ {
		var e Entry
		var ref []Neighbor
		for step := 0; step < 400; step++ {
			id, _ := ident.FromInt(params, rng.Intn(12))
			n := Neighbor{Record: Record{ID: id}, RTT: time.Duration(rng.Intn(4))}
			at := -1
			for i := range ref {
				if ref[i].ID.Equal(id) {
					at = i
				}
			}
			switch {
			case at >= 0:
				ref[at] = n
			case len(ref) < k:
				ref = append(ref, n)
			case n.RTT < ref[k-1].RTT:
				ref[k-1] = n
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].RTT < ref[j].RTT })
			e.insert(n, k)
			if !slices.Equal(e.neighbors, ref) {
				t.Fatalf("k=%d step %d: entry %v, stable-sort reference %v", k, step, e.neighbors, ref)
			}
		}
	}

	var full Entry
	for i := 0; i < 4; i++ {
		id, _ := ident.FromInt(params, i)
		full.insert(Neighbor{Record: Record{ID: id}, RTT: time.Duration(10 + i)}, 4)
	}
	id, _ := ident.FromInt(params, 9)
	rtt := time.Duration(9)
	if allocs := testing.AllocsPerRun(100, func() {
		full.insert(Neighbor{Record: Record{ID: id}, RTT: rtt}, 4) // displaces, then refreshes
		rtt--
	}); allocs != 0 {
		t.Errorf("Entry.insert into a full entry allocates %.0f times, want 0", allocs)
	}
}

// TestServerTableKeepsNearestUnderChurn: the (0,j)-entries promise the K
// users nearest the server, and leave-refills must not erode that.
func TestServerTableKeepsNearestUnderChurn(t *testing.T) {
	d := newDir(t, 2, 80)
	rng := rand.New(rand.NewSource(29))
	recs := joinN(t, d, 40, rng)
	for i := 0; i < 200; i++ {
		at := rng.Intn(len(recs))
		if err := d.Leave(recs[at].ID); err != nil {
			t.Fatal(err)
		}
		id, _ := ident.FromInt(tp, rng.Intn(tp.Capacity()))
		if _, taken := d.Record(id); taken {
			id = recs[at].ID
		}
		recs[at] = Record{Host: vnet.HostID(1 + rng.Intn(79)), ID: id}
		if err := d.Join(recs[at]); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < tp.Base; j++ {
		col := d.Members(ident.EmptyPrefix.Child(j))
		sort.SliceStable(col, func(a, b int) bool { return d.net.RTT(0, col[a].Host) < d.net.RTT(0, col[b].Host) })
		held := d.Server().Entry(j).Neighbors()
		for i, n := range held {
			if want := d.net.RTT(0, col[i].Host); n.RTT != want {
				t.Errorf("server (0,%d)-entry slot %d is %v away, the %d nearest start %v away", j, i, n.RTT, len(held), want)
			}
		}
	}
}
