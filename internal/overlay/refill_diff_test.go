package overlay

import (
	"errors"
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
// order until the entry is full — and the join that visits every table
// before the row-0 column scan as a reference model, and drives it and
// the real Directory through the same random event scripts. Ties are
// ordered (RTT, ID): the candidates arrive in ID order and the sort is
// stable.

// refJoin is the table walk Join replaced: every member's table, in
// rank order, resolves where it files the joiner (Table.cell) and
// inserts it there, whichever row that is, and the joiner files the
// member back. It shares the slot storage with the directory, not the
// column scan.
func refJoin(d *Directory, rec Record) error {
	if _, ok := d.rankOf(rec.ID); ok {
		return fmt.Errorf("duplicate join of %v", rec.ID)
	}
	if err := d.tree.Insert(rec.ID); err != nil {
		return err
	}
	r := d.ros.assign(rec)
	for int(r) >= len(d.tables) {
		d.tables = append(d.tables, nil)
	}
	d.cols.grow(len(d.tables))
	table := newTable(d.params, rec, d.ros, d.cols, r)
	for m, t := range d.tables {
		if t == nil {
			continue
		}
		row, col, _ := t.cell(rec.ID)
		rtt := nanos(d.net.RTT(rec.Host, t.owner.Host))
		if d.isAlive(t.owner.ID) {
			table.insert(row, t.owner.ID.Digit(row), ident.Rank(m), rtt)
		}
		if t.insert(row, col, r, rtt) {
			d.maintenanceMessages++
		}
	}
	d.tables[r] = table
	d.maintenanceMessages += table.NeighborCount()
	if d.server.insert(0, rec.ID.Digit(0), r, nanos(d.net.RTT(d.server.Host(), rec.Host))) {
		d.maintenanceMessages++
	}
	return nil
}

// refRefill is the sort-everything refill of one entry of a user table
// or of the key server's. It inserts by ID (grid.insertNeighbor), so it
// shares the slot window with the directory but not the rank-carrying
// candidate lists.
func refRefill(d *Directory, g *grid, row int, col ident.Digit, from vnet.HostID, subtree ident.Prefix, alive func(ident.ID) bool) {
	cands := d.Members(subtree)
	sort.SliceStable(cands, func(i, j int) bool {
		return d.net.RTT(from, cands[i].Host) < d.net.RTT(from, cands[j].Host)
	})
	for _, c := range cands {
		if g.entry(row, col).Len() >= d.k {
			break
		}
		if (alive != nil && !alive(c.ID)) || !d.isAlive(c.ID) {
			continue
		}
		if g.insertNeighbor(row, col, Neighbor{Record: c, RTT: d.net.RTT(from, c.Host)}) {
			d.maintenanceMessages++
		}
	}
}

func refRefillUser(d *Directory, t *Table, row int, col ident.Digit, alive func(ident.ID) bool) {
	refRefill(d, &t.grid, row, col, t.owner.Host, t.owner.ID.Prefix(row).Child(col), alive)
}

func refRefillServer(d *Directory, j ident.Digit) {
	refRefill(d, &d.server.grid, 0, j, d.server.Host(), ident.EmptyPrefix.Child(j), nil)
}

// refDrop is the bookkeeping Leave and Evict share; like Directory.drop
// it leaves the membership's hold on the rank to the caller.
func refDrop(d *Directory, id ident.ID) (ident.Rank, error) {
	r, ok := d.rankOf(id)
	if !ok {
		return r, fmt.Errorf("unknown user %v", id)
	}
	if err := d.tree.Remove(id); err != nil {
		return r, err
	}
	d.tables[r].release()
	d.tables[r] = nil
	if d.server.Remove(id) {
		d.maintenanceMessages++
		refRefillServer(d, id.Digit(0))
	}
	return r, nil
}

func refLeave(d *Directory, id ident.ID) error {
	r, err := refDrop(d, id)
	if err != nil {
		return err
	}
	for _, t := range d.tables {
		if t == nil {
			continue
		}
		if row, col, ok := t.Remove(id); ok {
			d.maintenanceMessages++
			refRefillUser(d, t, row, col, nil)
		}
	}
	d.ros.unref(r)
	return nil
}

func refEvict(d *Directory, id ident.ID) error {
	r, err := refDrop(d, id)
	if err != nil {
		return err
	}
	for _, t := range d.tables {
		if t == nil {
			continue
		}
		if l := t.owner.ID.CommonPrefixLen(id); l < d.params.Digits {
			refRefillUser(d, t, l, id.Digit(l), nil)
		}
	}
	refRefillServer(d, id.Digit(0))
	d.ros.unref(r)
	return nil
}

// refRepair drops the failed neighbor from the owner's table and
// refills its entry, reporting the entry it emptied a slot of.
func refRepair(d *Directory, owner, failed ident.ID, alive func(ident.ID) bool) (row int, col ident.Digit, ok bool) {
	t, ok := d.TableOf(owner)
	if !ok {
		return 0, 0, false
	}
	if row, col, ok = t.Remove(failed); ok {
		refRefillUser(d, t, row, col, alive)
	}
	return row, col, ok
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

// scanNet counts the RTTs a directory measures and hides the stubs of
// the net it embeds, so the directory on it reads every table and
// refills from every candidate.
type scanNet struct {
	vnet.Network
	probes *int
}

func (s scanNet) RTT(a, b vnet.HostID) time.Duration {
	*s.probes++
	return s.Network.RTT(a, b)
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

// sameTables reports the first difference between two directories:
// membership, every table (entry by entry, neighbor by neighbor, record
// and RTT), the server tables, and the maintenance-message estimate.
func sameTables(got, want *Directory) error {
	if got.Size() != want.Size() {
		return fmt.Errorf("%d members, reference has %d", got.Size(), want.Size())
	}
	sameEntry := func(g, w Entry) error {
		same := g.Len() == w.Len()
		for i := 0; same && i < g.Len(); i++ {
			same = g.at(i) == w.at(i)
		}
		if !same {
			return fmt.Errorf("%v, reference %v", g.Neighbors(), w.Neighbors())
		}
		return nil
	}
	for _, id := range want.IDs() {
		gt, ok := got.TableOf(id)
		if !ok {
			return fmt.Errorf("no table for %v", id)
		}
		wt, _ := want.TableOf(id)
		for i := 0; i < want.params.Digits; i++ {
			for j := 0; j < want.params.Base; j++ {
				if err := sameEntry(gt.Entry(i, j), wt.Entry(i, j)); err != nil {
					return fmt.Errorf("%v (%d,%d): %w", id, i, j, err)
				}
			}
		}
	}
	for j := 0; j < want.params.Base; j++ {
		if err := sameEntry(got.server.Entry(j), want.server.Entry(j)); err != nil {
			return fmt.Errorf("server (0,%d): %w", j, err)
		}
	}
	if g, w := got.MaintenanceMessages(), want.MaintenanceMessages(); g != w {
		return fmt.Errorf("%d maintenance messages, reference %d", g, w)
	}
	return nil
}

// refHolders is the scan Holders prunes: every table naming the user.
func refHolders(d *Directory, id ident.ID) []ident.ID {
	var out []ident.ID
	for _, t := range d.tables {
		if t != nil && t.Contains(id) {
			out = append(out, t.owner.ID)
		}
	}
	slices.SortFunc(out, ident.ID.Compare)
	return out
}

// ranksAllMembers reports a rank held by anyone but a member: with no
// evicted user still awaiting its holders' repairs, the rank table must
// map exactly the membership.
func ranksAllMembers(d *Directory) error {
	if n := d.ros.ranks.Len(); n != d.Size() {
		return fmt.Errorf("%d ranks held for %d members", n, d.Size())
	}
	return d.ros.ranks.CheckConsistency()
}

// TestRefillMatchesSortEverythingReference runs random Join / Leave /
// crash-evict-repair scripts, with a liveness oracle that flips
// mid-script, through the Directory and through the reference model, and
// requires identical tables and message counts after every event, and
// K-consistency and no rank held by a non-member at every quiescent
// point (no user crashed but not yet evicted and repaired). Some
// evictions re-admit the evicted ID at a new host before its holders
// repair, so the join refreshes slots that still name its rank. The
// reference scans every member, so on the plain GT-ITM graph it is
// also the oracle for the stub pruning; tieNet and spikeNet hide the
// stubs, and the directory scans too.
func TestRefillMatchesSortEverythingReference(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 6}
	const hosts = 400
	factor := 1
	nets := map[string]vnet.Network{
		"gtitm": testNet(t, hosts),
		"ties":  tieNet{testNet(t, hosts)},
		"spike": spikeNet{testNet(t, hosts), &factor},
	}
	for name, net := range nets {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				diffScript(t, params, hosts, net, &factor, seed)
			})
		}
	}
}

// TestStubPruningMatchesScan is the same differential on plain
// *vnet.GTITM graphs with many stub domains, where Join, Leave, Evict
// and Holders skip the stubs their bounds rule out and refills read
// candidates nearest first: the sim_4096 bench graph and the paper's,
// at two ID spaces. It fails if the events read as many tables as the
// scan, or their refills measured as many RTTs, so the scan cannot
// pass for either pruned path.
func TestStubPruningMatchesScan(t *testing.T) {
	const hosts = 150 // fewer than the joins: members share hosts, so RTTs tie
	for _, tc := range []struct {
		name string
		cfg  vnet.GTITMConfig
	}{
		{"sim_4096", churnTopology},
		{"paper", vnet.DefaultGTITMConfig()},
	} {
		net, err := vnet.NewGTITM(tc.cfg, hosts, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, params := range []ident.Params{{Digits: 3, Base: 6}, {Digits: 2, Base: 32}} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%dx%d/seed%d", tc.name, params.Digits, params.Base, seed), func(t *testing.T) {
					factor := 1
					diffScript(t, params, hosts, net, &factor, seed)
				})
			}
		}
	}
}

// diffScript drives one seeded script through a Directory and the
// reference model on net, and through a Directory on the same net with
// its stubs hidden, whose refills read every candidate; factor is the
// multiplier spikeNet reads.
func diffScript(t *testing.T, params ident.Params, hosts int, net vnet.Network, factor *int, seed int64) {
	const k, events = 3, 500
	rng := rand.New(rand.NewSource(seed))
	dead := map[ident.ID]bool{}
	alive := func(id ident.ID) bool { return !dead[id] }
	// suspect is the extra per-repair predicate failure
	// recovery passes: it learns of a crash at once, the
	// directory's own oracle one event later.
	suspected := map[ident.ID]bool{}
	suspect := func(id ident.ID) bool { return !suspected[id] }

	probes, scanProbes := 0, 0
	gotNet := vnet.Network(scanNet{net, &probes}) // a net without stubs loses none
	if g, ok := net.(*vnet.GTITM); ok {
		gotNet = countNet{g, &probes}
	}
	got, err := NewDirectory(params, k, gotNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewDirectory(params, k, net, 0)
	scan, _ := NewDirectory(params, k, scanNet{net, &scanProbes}, 0)
	for _, d := range []*Directory{got, want, scan} {
		d.SetLivenessOracle(alive)
	}
	// refill runs one leave, evict or repair through got and the scan
	// and counts the RTTs their refills measured.
	refills, scanRefills := 0, 0
	refill := func(event func(d *Directory) error) error {
		p, q := probes, scanProbes
		err := errors.Join(event(got), event(scan))
		refills, scanRefills = refills+probes-p, scanRefills+scanProbes-q
		return err
	}

	var members []ident.ID
	nextHost := 1
	visits := 0 // member tables a scan would read in the pruned events
	admit := func(id ident.ID) {
		r := Record{Host: vnet.HostID(nextHost%(hosts-1) + 1), ID: id}
		nextHost++
		visits += got.Size()
		if err := errors.Join(got.Join(r), scan.Join(r)); err != nil {
			t.Fatal(err)
		}
		if err := refJoin(want, r); err != nil {
			t.Fatal(err)
		}
		members = append(members, id)
	}
	join := func() {
		id, _ := ident.FromInt(params, rng.Intn(params.Capacity()))
		if _, ok := got.Record(id); !ok {
			admit(id)
		}
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
			if err := ranksAllMembers(got); err != nil {
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
		suspected[id] = true
		crashed = append(crashed, id)
	}
	for ev := 1; ev <= events; ev++ {
		for _, id := range crashed {
			dead[id] = true
		}
		*factor = 1 + ev/100%3 // only spikeNet reads it
		what := "join"
		switch p := rng.Float64(); {
		case p < 0.35 || len(members) < 60:
			join()
		case p < 0.65:
			what = "leave"
			id := pick()
			visits += got.Size() - 1
			if refill(func(d *Directory) error { return d.Leave(id) }) != nil || refLeave(want, id) != nil {
				t.Fatalf("event %d: leave %v failed", ev, id)
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
			visits += got.Size() - 1
			if refill(func(d *Directory) error { return d.Evict(id) }) != nil || refEvict(want, id) != nil {
				t.Fatalf("event %d: evict %v failed", ev, id)
			}
			check(ev, "evict")
			visits += got.Size()
			holders := got.Holders(id)
			if ref := refHolders(want, id); !slices.Equal(holders, ref) {
				t.Fatalf("event %d: Holders(%v) = %v, scan %v", ev, id, holders, ref)
			}
			rejoin := rng.Intn(3) == 0
			if rejoin {
				// The ID is re-admitted at a new host while its
				// holders still name its rank.
				what = "evict+rejoin+repair"
				delete(dead, id)
				delete(suspected, id)
				admit(id)
				check(ev, "rejoin")
			}
			if rng.Intn(2) == 0 {
				crash() // mid-recovery: only suspect knows yet
			}
			for _, owner := range holders {
				tab, _ := got.TableOf(owner)
				row, col, _ := tab.cell(id)
				refill(func(d *Directory) error { d.Repair(owner, id, suspect); return nil })
				wrow, wcol, wok := refRepair(want, owner, id, suspect)
				if (!rejoin && tab.Contains(id)) || !wok || row != wrow || col != wcol {
					t.Fatalf("event %d: Repair(%v, %v) emptied %d,%d, reference %d,%d,%v",
						ev, owner, id, row, col, wrow, wcol, wok)
				}
			}
			if !rejoin { // a rejoined ID may have crashed again
				delete(dead, id)
				delete(suspected, id)
			}
		default:
			join()
		}
		check(ev, what)
	}
	if err := sameTables(scan, got); err != nil {
		t.Fatalf("the scan: %v", err)
	}
	if _, stubs := net.(vnet.Stubs); stubs && (got.visits >= visits || refills >= scanRefills) {
		t.Fatalf("the events read %d member tables and their refills %d RTTs, a scan %d and %d: a pass was not pruned",
			got.visits, refills, visits, scanRefills)
	} else {
		t.Logf("the events read %d member tables and their refills %d RTTs, a scan %d and %d", got.visits, refills, visits, scanRefills)
	}
}

// TestEvictTopsUpARowZeroEntry: a row-0 refill that finds every
// candidate hidden by the liveness oracle leaves its entries short, and
// once the candidates are back an eviction in the same column tops up
// every short entry it would file the evicted user in, held or not, as
// the reference does.
func TestEvictTopsUpARowZeroEntry(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 6}
	const k = 3
	net := testNet(t, 20)
	hidden := map[ident.ID]bool{}
	alive := func(id ident.ID) bool { return !hidden[id] }
	got, err := NewDirectory(params, k, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewDirectory(params, k, net, 0)
	got.SetLivenessOracle(alive)
	want.SetLivenessOracle(alive)
	check := func(what string) {
		t.Helper()
		if err := sameTables(got, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	// Three columns of four members; column holds the top digit 1.
	var column []ident.ID
	host := 1
	for top := 0; top < 3; top++ {
		for i := 0; i < 4; i++ {
			r := Record{Host: vnet.HostID(host), ID: ident.MustNew(params, []ident.Digit{ident.Digit(top), ident.Digit(i), 0})}
			host++
			if err := got.Join(r); err != nil {
				t.Fatal(err)
			}
			if err := refJoin(want, r); err != nil {
				t.Fatal(err)
			}
			if top == 1 {
				column = append(column, r.ID)
			}
		}
	}
	check("build")

	// column[0] leaves while the rest of its column is hidden: the
	// row-0 entries that held it refill nothing.
	for _, id := range column[1:] {
		hidden[id] = true
	}
	if got.Leave(column[0]) != nil || refLeave(want, column[0]) != nil {
		t.Fatal("leave failed")
	}
	check("hidden leave")
	short := 0
	for _, id := range got.IDs() {
		if tab, _ := got.TableOf(id); id.Digit(0) != 1 && tab.Entry(0, 1).Len() < k {
			short++
		}
	}
	if short == 0 {
		t.Fatal("the hidden leave left no row-0 entry short")
	}

	clear(hidden)
	if got.Evict(column[1]) != nil || refEvict(want, column[1]) != nil {
		t.Fatal("evict failed")
	}
	check("evict")
	for _, owner := range got.Holders(column[1]) {
		got.Repair(owner, column[1], nil)
		refRepair(want, owner, column[1], nil)
	}
	check("repair")
	if err := got.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinDeterministicUnderTies: on a net where most RTTs tie, which of
// several equally near members a joiner's entry keeps must be a function
// of the event script alone (Join visits the tables in rank order), not
// of map iteration order: two directories fed one script agree table by
// table and on the message count.
func TestJoinDeterministicUnderTies(t *testing.T) {
	params := ident.Params{Digits: 3, Base: 6}
	const hosts, k = 200, 3
	net := tieNet{testNet(t, hosts)}
	build := func() *Directory {
		d, err := NewDirectory(params, k, net, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		var members []ident.ID
		for step := 0; d.Size() < 150; step++ {
			if len(members) > 20 && rng.Intn(5) == 0 {
				i := rng.Intn(len(members))
				if err := d.Leave(members[i]); err != nil {
					t.Fatal(err)
				}
				members = slices.Delete(members, i, i+1)
				continue
			}
			id, err := ident.FreeID(params, rng, func(id ident.ID) bool { _, ok := d.Record(id); return ok })
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Join(Record{Host: vnet.HostID(1 + step%(hosts-1)), ID: id}); err != nil {
				t.Fatal(err)
			}
			members = append(members, id)
		}
		return d
	}
	first := build()
	if err := first.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sameTables(build(), first); err != nil {
			t.Fatalf("same script, different directory: %v", err)
		}
	}
}

// TestRankLifetime pins the roster's one rule — a rank is released only
// when its user is neither a member nor named by any slot — on the two
// paths that stretch it: an evicted user re-admitted (at another host)
// before its holders repair, and an evicted user whose holders repair
// one by one.
func TestRankLifetime(t *testing.T) {
	d := newDir(t, 2, 60)
	recs := joinN(t, d, 30, rand.New(rand.NewSource(37)))
	if err := ranksAllMembers(d); err != nil {
		t.Fatal(err)
	}
	eachSlotNaming := func(id ident.ID, fn func(owner Record, n Neighbor)) {
		for _, owner := range d.IDs() {
			tab, _ := d.TableOf(owner)
			for i := 0; i < tp.Digits; i++ {
				for j := 0; j < tp.Base; j++ {
					named := 0
					for _, n := range tab.Entry(i, j).Neighbors() {
						if n.ID.Equal(id) {
							named++
							fn(tab.Owner(), n)
						}
					}
					if named > 1 {
						t.Errorf("%v's (%d,%d)-entry names %v %d times", owner, i, j, id, named)
					}
				}
			}
		}
	}

	// Evict X, then re-join it elsewhere while its holders still name it.
	x := recs[7]
	if err := d.Evict(x.ID); err != nil {
		t.Fatal(err)
	}
	holders := d.Holders(x.ID)
	if len(holders) == 0 {
		t.Fatal("nobody holds the evicted user; test is vacuous")
	}
	if got := d.ros.ranks.Len(); got != d.Size()+1 {
		t.Fatalf("%d ranks held with one evicted user still named, want %d", got, d.Size()+1)
	}
	moved := Record{Host: 55, ID: x.ID, JoinTime: 9}
	if err := d.Join(moved); err != nil {
		t.Fatal(err)
	}
	slots := 0
	eachSlotNaming(x.ID, func(owner Record, n Neighbor) {
		slots++
		if n.Record != moved {
			t.Errorf("%v names %+v, the re-admitted record is %+v", owner.ID, n.Record, moved)
		}
		if want := d.net.RTT(owner.Host, moved.Host); n.RTT != want {
			t.Errorf("%v holds %v at %v, re-measured RTT is %v", owner.ID, x.ID, n.RTT, want)
		}
	})
	if slots < len(holders) {
		t.Errorf("%d slots name the re-admitted user, %d tables held it before", slots, len(holders))
	}
	if err := d.CheckConsistency(); err != nil {
		t.Error(err)
	}
	if err := ranksAllMembers(d); err != nil {
		t.Error(err)
	}

	// Evict Y and let its holders repair one at a time: the rank goes
	// with the last slot, not before.
	y := recs[11]
	if err := d.Evict(y.ID); err != nil {
		t.Fatal(err)
	}
	holders = d.Holders(y.ID)
	if len(holders) < 2 {
		t.Fatalf("%d holders of the second evicted user, want several", len(holders))
	}
	for i, owner := range holders {
		if got := d.ros.ranks.Len(); got != d.Size()+1 {
			t.Fatalf("%d ranks held before repair %d of %d, want %d", got, i+1, len(holders), d.Size()+1)
		}
		if tab, _ := d.TableOf(owner); !tab.Contains(y.ID) {
			t.Fatalf("holder %v does not hold %v", owner, y.ID)
		}
		d.Repair(owner, y.ID, nil)
	}
	if err := ranksAllMembers(d); err != nil {
		t.Error(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Error(err)
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

// TestEntryInsertMatchesStableSort is the slot window's model test:
// random inserts (append, refresh, displace, reject) and removes through
// a stand-alone table, against a plain []Neighbor kept in the order a
// stable sort of the whole entry after every change yields. The
// table's private roster must hold a rank for exactly the IDs the
// window names; a full-entry insert allocates nothing.
func TestEntryInsertMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	params := ident.Params{Digits: 2, Base: 16}
	owner := Record{ID: ident.MustNew(params, []ident.Digit{0, 0})}
	cand := func(i int) ident.ID { return ident.MustNew(params, []ident.Digit{1, i}) }
	for k := 1; k <= 5; k++ {
		table, err := NewTable(params, k, owner)
		if err != nil {
			t.Fatal(err)
		}
		var ref []Neighbor
		for step := 0; step < 600; step++ {
			id := cand(rng.Intn(12))
			at := slices.IndexFunc(ref, func(n Neighbor) bool { return n.ID.Equal(id) })
			if rng.Intn(4) == 0 {
				if _, _, ok := table.Remove(id); ok != (at >= 0) {
					t.Fatalf("k=%d step %d: Remove(%v) = %v, model holds it: %v", k, step, id, ok, at >= 0)
				}
				if at >= 0 {
					ref = slices.Delete(ref, at, at+1)
				}
			} else {
				n := Neighbor{Record: Record{Host: vnet.HostID(rng.Intn(3)), ID: id}, RTT: time.Duration(rng.Intn(4))}
				changed := true
				switch {
				case at >= 0:
					changed = ref[at].RTT != n.RTT
					if changed {
						ref[at] = n
					} else {
						ref[at].Record = n.Record // the roster files the newest record either way
					}
				case len(ref) < k:
					ref = append(ref, n)
				case n.RTT < ref[k-1].RTT:
					ref[k-1] = n
				default:
					changed = false
				}
				sort.SliceStable(ref, func(i, j int) bool { return ref[i].RTT < ref[j].RTT })
				if got := table.Insert(n); got != changed {
					t.Fatalf("k=%d step %d: Insert(%v) = %v, model says %v", k, step, n, got, changed)
				}
			}
			if got := table.Entry(0, 1).Neighbors(); !slices.Equal(got, ref) {
				t.Fatalf("k=%d step %d: entry %v, stable-sort reference %v", k, step, got, ref)
			}
			if table.ros == nil {
				continue // made by the first insert
			}
			if got := table.ros.ranks.Len(); got != len(ref) {
				t.Fatalf("k=%d step %d: %d ranks held for %d slots", k, step, got, len(ref))
			}
		}
	}

	// AllocsPerRun calls the insert 101 times, lowering the RTT each
	// time: it starts nearer than the full entry's worst and stays >= 0.
	full, _ := NewTable(params, 4, owner)
	for i := 0; i < 4; i++ {
		full.Insert(Neighbor{Record: Record{ID: cand(i)}, RTT: time.Duration(110 + i)})
	}
	r := full.ros.assign(Record{ID: cand(9)})
	rtt := time.Duration(109)
	if allocs := testing.AllocsPerRun(100, func() {
		full.insert(0, 1, r, nanos(rtt)) // displaces, then refreshes
		rtt--
	}); allocs != 0 {
		t.Errorf("insert into a full entry allocates %.0f times, want 0", allocs)
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
