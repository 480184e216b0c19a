package tmesh

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 4}

// buildGroup joins n users with distinct hosts and random distinct IDs.
func buildGroup(t *testing.T, k, n int, seed int64) (*overlay.Directory, []overlay.Record) {
	t.Helper()
	cfg := vnet.GTITMConfig{
		TransitDomains:   2,
		TransitPerDomain: 2,
		StubsPerTransit:  2,
		TotalRouters:     120,
		TotalLinks:       300,
		AccessDelayMin:   time.Millisecond,
		AccessDelayMax:   3 * time.Millisecond,
	}
	net, err := vnet.NewGTITM(cfg, n+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := overlay.NewDirectory(tp, k, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	used := make(map[string]bool)
	var recs []overlay.Record
	for len(recs) < n {
		id, err := ident.FromInt(tp, rng.Intn(tp.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if used[id.Key()] {
			continue
		}
		used[id.Key()] = true
		r := overlay.Record{Host: vnet.HostID(len(recs) + 1), ID: id}
		if err := dir.Join(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := dir.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return dir, recs
}

// TestTheorem1ServerMulticast: with 1-consistent tables and no loss,
// every user receives exactly one copy of a server multicast.
func TestTheorem1ServerMulticast(t *testing.T) {
	for _, k := range []int{1, 4} {
		for _, n := range []int{1, 5, 20, 50} {
			dir, recs := buildGroup(t, k, n, int64(10*n+k))
			res, err := Multicast(Config[int]{Dir: dir}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Users) != n {
				t.Fatalf("K=%d N=%d: %d users got the message, want %d", k, n, len(res.Users), n)
			}
			for _, r := range recs {
				st := res.Users[r.ID.Key()]
				if st == nil || st.Received != 1 {
					t.Fatalf("K=%d N=%d: user %v received %+v, want exactly 1 copy", k, n, r.ID, st)
				}
				if st.Delay <= 0 {
					t.Errorf("user %v has non-positive delay %v", r.ID, st.Delay)
				}
				if st.Level < 1 || st.Level > tp.Digits {
					t.Errorf("user %v at invalid level %d", r.ID, st.Level)
				}
			}
			if res.Lost != 0 {
				t.Errorf("K=%d N=%d: lost %d subtrees", k, n, res.Lost)
			}
		}
	}
}

// TestTheorem1UserMulticast: same for data transport rooted at each user.
func TestTheorem1UserMulticast(t *testing.T) {
	dir, recs := buildGroup(t, 2, 30, 77)
	for _, sender := range recs[:8] {
		res, err := Multicast(Config[int]{Dir: dir, SenderID: sender.ID}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			st := res.Users[r.ID.Key()]
			if r.ID.Equal(sender.ID) {
				if st == nil || st.Received != 0 {
					t.Fatalf("sender %v should receive nothing, got %+v", sender.ID, st)
				}
				continue
			}
			if st == nil || st.Received != 1 {
				t.Fatalf("sender %v -> user %v: received %+v, want 1", sender.ID, r.ID, st)
			}
			if st.RDP < 1-1e-9 {
				t.Errorf("user %v RDP %.3f < 1: multicast beat the direct one-way delay", r.ID, st.RDP)
			}
		}
	}
}

// TestLemmas1and2PrefixStructure verifies, per hop, that a user at
// forwarding level i shares at least its upstream's level worth of digits
// with the upstream (Lemma 1), and that the level equals one plus the
// common prefix length with its upstream (structure of FORWARD).
func TestLemmas1and2PrefixStructure(t *testing.T) {
	dir, recs := buildGroup(t, 4, 40, 3)
	res, err := Multicast(Config[int]{Dir: dir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		st := res.Users[r.ID.Key()]
		if st.UpstreamID.IsZero() {
			if st.Level != 1 {
				t.Errorf("user %v fed by server at level %d, want 1", r.ID, st.Level)
			}
			continue
		}
		cpl := r.ID.CommonPrefixLen(st.UpstreamID)
		if st.Level != cpl+1 {
			t.Errorf("user %v at level %d, common prefix with upstream %v is %d", r.ID, st.Level, st.UpstreamID, cpl)
		}
		if cpl < st.UpstreamLevel {
			t.Errorf("Lemma 1 violated: upstream %v at level %d shares only %d digits with %v",
				st.UpstreamID, st.UpstreamLevel, cpl, r.ID)
		}
	}
}

// TestFailureRecoveryFallback: a dead primary neighbor is bypassed via
// another neighbor of the same entry (K > 1), and all live users still
// receive exactly one copy.
func TestFailureRecoveryFallback(t *testing.T) {
	dir, recs := buildGroup(t, 4, 40, 21)
	// Kill three users; with K=4 entries usually hold fallbacks.
	dead := map[string]bool{
		recs[2].ID.Key():  true,
		recs[11].ID.Key(): true,
		recs[23].ID.Key(): true,
	}
	alive := func(id ident.ID) bool { return !dead[id.Key()] }
	res, err := Multicast(Config[int]{Dir: dir, Alive: alive}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		st := res.Users[r.ID.Key()]
		if dead[r.ID.Key()] {
			if st != nil && st.Received != 0 {
				t.Errorf("dead user %v received %d copies", r.ID, st.Received)
			}
			continue
		}
		if st == nil || st.Received != 1 {
			// A live user may genuinely be unreachable if every member
			// of some covering entry is dead; with 3 dead of 40 and
			// K=4 this must not happen here.
			t.Errorf("live user %v received %+v, want 1 copy", r.ID, st)
		}
	}
}

// TestSplitHopFiltering: the SplitHop hook receives the covered subtree
// prefix and can suppress hops entirely by returning zero units.
func TestSplitHopFiltering(t *testing.T) {
	dir, recs := buildGroup(t, 2, 25, 9)
	// Payload: set of target prefixes; a hop keeps only those related to
	// the covered subtree, modelling REKEY-MESSAGE-SPLIT.
	target := recs[0] // only this user's path matters
	type payload []ident.Prefix
	full := payload{
		ident.EmptyPrefix.Child(target.ID.Digit(0)),
		target.ID.Prefix(2),
		target.ID.AsPrefix(),
	}
	cfg := Config[payload]{
		Dir: dir,
		SplitHop: func(p payload, subtree ident.Prefix) payload {
			var out payload
			for _, pre := range p {
				if pre.Related(subtree) {
					out = append(out, pre)
				}
			}
			return out
		},
		SizeOf: func(p payload) int { return len(p) },
	}
	res, err := Multicast(cfg, full)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Users[target.ID.Key()]
	if st == nil || st.Received != 1 {
		t.Fatalf("target did not receive its message: %+v", st)
	}
	if st.UnitsReceived == 0 {
		t.Error("target received zero units")
	}
	// Users in foreign level-0 subtrees receive nothing at all.
	for _, r := range recs[1:] {
		if r.ID.Digit(0) == target.ID.Digit(0) {
			continue
		}
		if st := res.Users[r.ID.Key()]; st != nil && st.Received > 0 {
			t.Errorf("unrelated user %v received %d units", r.ID, st.UnitsReceived)
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	if _, err := Multicast(Config[int]{}, 1); err == nil {
		t.Error("nil directory should fail")
	}
	dir, _ := buildGroup(t, 1, 3, 5)
	ghost := ident.MustNew(tp, []ident.Digit{3, 3, 3})
	if _, err := Multicast(Config[int]{Dir: dir, SenderID: ghost}, 1); err == nil {
		t.Error("unknown sender should fail")
	}
}

func TestLinkStressAccounting(t *testing.T) {
	dir, _ := buildGroup(t, 2, 20, 31)
	res, err := Multicast(Config[int]{Dir: dir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LinkCopies) == 0 {
		t.Fatal("no link stress recorded on a router topology")
	}
	for l, c := range res.LinkCopies {
		if c <= 0 {
			t.Errorf("link %d has non-positive stress %d", l, c)
		}
		if res.LinkUnits[l] != c {
			t.Errorf("unit payload: link %d units %d != copies %d", l, res.LinkUnits[l], c)
		}
	}
	if res.Duration <= 0 {
		t.Error("session duration should be positive")
	}
}

// TestSingleUserGroup: a group of one user still works: the server
// reaches it directly.
func TestSingleUserGroup(t *testing.T) {
	dir, recs := buildGroup(t, 4, 1, 13)
	res, err := Multicast(Config[int]{Dir: dir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Users[recs[0].ID.Key()]
	if st == nil || st.Received != 1 || st.Level != 1 {
		t.Fatalf("sole user stats = %+v", st)
	}
	if res.SenderStress != 1 {
		t.Errorf("server stress = %d, want 1", res.SenderStress)
	}
}

// TestMulticastOverSparseTables: overlay's FORWARD walk hands the session
// populated entries only, and a session over tables with empty entries
// and whole empty rows must report what it did when the walk offered
// every off-diagonal (s,j): the reference below is that exhaustive walk,
// with sendVia's rules (live primary or, if the entry is populated but
// all dead, one Lost). The figure and interval-record goldens pin the
// same equivalence at scale; this pins it where a diff is readable.
func TestMulticastOverSparseTables(t *testing.T) {
	dir, recs := buildGroup(t, 1, 14, 3)
	dead := map[string]bool{recs[4].ID.Key(): true, recs[9].ID.Key(): true}
	alive := func(id ident.ID) bool { return !dead[id.Key()] }
	net := dir.Network()

	want := map[string]*UserStats{}
	lost, senderStress, emptyRows := 0, 0, 0
	var forward func(from overlay.Record, level int, now time.Duration)
	via := func(e overlay.Entry, fromHost vnet.HostID, stress *int, s int, now time.Duration) {
		next, ok := e.Primary(alive)
		if !ok {
			if e.Len() > 0 {
				lost++
			}
			return
		}
		*stress++
		at := now + net.OneWay(fromHost, next.Host)
		want[next.ID.Key()] = &UserStats{Received: 1, Level: s + 1, Delay: at}
		forward(next.Record, s+1, at)
	}
	forward = func(from overlay.Record, level int, now time.Duration) {
		table, _ := dir.TableOf(from.ID)
		stress := 0
		for s := level; s < tp.Digits; s++ {
			populated := 0
			for j := 0; j < tp.Base; j++ {
				if j != from.ID.Digit(s) {
					populated += table.Entry(s, j).Len()
					via(table.Entry(s, j), from.Host, &stress, s, now)
				}
			}
			if populated == 0 {
				emptyRows++
			}
		}
		want[from.ID.Key()].Stress = stress
	}
	for j := 0; j < tp.Base; j++ {
		via(dir.Server().Entry(j), dir.Server().Host(), &senderStress, 0, 0)
	}
	if lost == 0 || emptyRows == 0 {
		t.Fatalf("reference walk met %d all-dead entries and %d empty rows; test is vacuous", lost, emptyRows)
	}

	res, err := Multicast(Config[int]{Dir: dir, Alive: alive}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != lost || res.SenderStress != senderStress || len(res.Users) != len(want) {
		t.Errorf("Lost %d, SenderStress %d, %d users; exhaustive walk: %d, %d, %d",
			res.Lost, res.SenderStress, len(res.Users), lost, senderStress, len(want))
	}
	for key, w := range want {
		got := res.Users[key]
		if got == nil || got.Received != w.Received || got.Level != w.Level || got.Delay != w.Delay || got.Stress != w.Stress {
			t.Errorf("user %v: %+v, exhaustive walk: %+v", ident.IDFromKey(key), got, w)
		}
	}
}
