package chaos

import (
	"strings"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

var evParams = ident.Params{Digits: 2, Base: 4}

func evID(t *testing.T, v int) ident.ID {
	t.Helper()
	id, err := ident.FromInt(evParams, v)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// evDir builds a small 2-consistent directory.
func evDir(t *testing.T) *overlay.Directory {
	t.Helper()
	net, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := overlay.NewDirectory(evParams, 2, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []int{0, 1, 4, 5, 9, 14} {
		if err := dir.Join(overlay.Record{Host: vnet.HostID(i + 1), ID: evID(t, v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.CheckConsistency(); err != nil {
		t.Fatalf("directory is inconsistent before it was broken: %v", err)
	}
	return dir
}

// brokenDir deletes one neighbor from one owner's table of an evDir
// without repairing the entry, which breaks Definition 3 there.
func brokenDir(t *testing.T) *overlay.Directory {
	t.Helper()
	dir := evDir(t)
	for _, owner := range dir.IDs() {
		tab, _ := dir.TableOf(owner)
		for _, nb := range dir.IDs() {
			if _, _, ok := tab.Remove(nb); ok {
				return dir
			}
		}
	}
	t.Fatal("no table holds any neighbor")
	return nil
}

// keyedWorld builds a four-member key tenant, snapshots member stale's
// keyring (a copy built from the tree's path keys) and then rekeys one
// member out. The evidence samples the three that stay and reads the
// snapshot, which still holds the previous group key, in place of
// stale's live keyring. A zero stale leaves every keyring live.
func keyedWorld(t *testing.T, stale ident.ID) *Evidence {
	t.Helper()
	tn, err := NewKeyTenant(evParams, []byte("evidence"), keytree.Opts{}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []int{0, 1, 4, 9}
	var joins []workload.Event
	for _, h := range hosts {
		joins = append(joins, workload.Event{Kind: workload.Join, Host: h})
	}
	if _, err := Step(tn, joins, 0, nil); err != nil {
		t.Fatal(err)
	}
	w := tn.World()
	var snapshot *keytree.Keyring
	if !stale.IsZero() {
		path, err := w.Tree().PathKeys(stale)
		if err != nil {
			t.Fatal(err)
		}
		if snapshot, err = keytree.NewKeyring(evParams, stale, path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Step(tn, []workload.Event{{Kind: workload.Leave, Victim: hosts[3]}}, 0, nil); err != nil {
		t.Fatal(err)
	}
	ev := tn.Evidence()
	if len(ev.Keyed) != 3 {
		t.Fatalf("evidence samples %v, want the three members", ev.Keyed)
	}
	if snapshot != nil {
		ev.Keyring = func(id ident.ID) *keytree.Keyring {
			if id.Equal(stale) {
				return snapshot
			}
			return w.Keyring(id)
		}
	}
	return ev
}

// fakeClusters is a hand-built cluster state; the real Manager cannot
// be driven into a leaderless or outsider-led cluster.
type fakeClusters struct {
	prefix  ident.Prefix
	leader  *overlay.Record
	members []overlay.Record
	epoch   uint64
}

func (f fakeClusters) Prefixes() []ident.Prefix { return []ident.Prefix{f.prefix} }
func (f fakeClusters) Leader(ident.Prefix) (overlay.Record, bool) {
	if f.leader == nil {
		return overlay.Record{}, false
	}
	return *f.leader, true
}
func (f fakeClusters) Members(ident.Prefix) []overlay.Record { return f.members }
func (f fakeClusters) Epoch(ident.Prefix) (uint64, bool)     { return f.epoch, true }
func (f fakeClusters) Has(ident.ID) bool                     { return true }

// TestAuditorsCanFail hands every auditor evidence that violates its
// invariant and requires the violation to be reported under that
// auditor's name — and evidence that does not, which must pass. Stub
// any one check to `return nil` and this test goes red.
func TestAuditorsCanFail(t *testing.T) {
	a, b, c := evID(t, 0), evID(t, 1), evID(t, 4)
	inA, outsider := a.Prefix(1), c
	rec := func(id ident.ID, at time.Duration) overlay.Record {
		return overlay.Record{ID: id, JoinTime: at}
	}
	broken := brokenDir(t)
	stale, fresh := keyedWorld(t, b), keyedWorld(t, ident.ID{})
	staleKey := keycrypt.DeriveKey([]byte("evidence"), "stale")

	cases := []struct {
		name string
		ev   *Evidence
		// fails maps each auditor expected to fail to a fragment of its
		// violation; every other auditor must pass.
		fails map[string]string
	}{
		{name: "no evidence at all", ev: &Evidence{}},

		{name: "broken table", ev: &Evidence{Dir: broken},
			fails: map[string]string{"k-consistency": "full sweep"}},
		{name: "consistent tables", ev: &Evidence{Dir: evDir(t)}},

		{name: "second copy", ev: &Evidence{Copies: []Copy{{a, 1}, {b, 2}}},
			fails: map[string]string{"delivery": "received 2 copies"}},
		{name: "missed copy, fault-free", ev: &Evidence{Copies: []Copy{{a, 1}, {b, 0}}, FaultFree: true},
			fails: map[string]string{"delivery": "missed the multicast"}},
		{name: "missed copy under faults", ev: &Evidence{Copies: []Copy{{a, 1}, {b, 0}}}},
		{name: "missed copy, member crashed", ev: &Evidence{Copies: []Copy{{a, 1}, {b, 0}}, FaultFree: true,
			Alive: func(id ident.ID) bool { return !id.Equal(b) }}},
		{name: "hop carries another subtree's encryption", ev: &Evidence{Hops: []split.Delivery{
			{To: a, Level: 1, Encryptions: []keycrypt.Encryption{{ID: inA}, {ID: c.Prefix(1)}}}}},
			fails: map[string]string{"delivery": "unrelated subtree"}},
		{name: "hop carries exactly its subtree's encryptions", ev: &Evidence{
			Message: []keycrypt.Encryption{{ID: ident.EmptyPrefix}, {ID: inA}, {ID: c.Prefix(1)}},
			Hops:    []split.Delivery{{To: a, Level: 1, Encryptions: []keycrypt.Encryption{{ID: ident.EmptyPrefix}, {ID: inA}}}}}},
		{name: "hop lacks a needed encryption", ev: &Evidence{
			Message: []keycrypt.Encryption{{ID: ident.EmptyPrefix}, {ID: inA}},
			Hops:    []split.Delivery{{To: a, Level: 1, Encryptions: []keycrypt.Encryption{{ID: inA}}}}},
			fails: map[string]string{"delivery": "lacks encryption [] that subtree"}},
		{name: "hop to a subtree that needs none", ev: &Evidence{
			Message: []keycrypt.Encryption{{ID: inA}},
			Hops:    []split.Delivery{{To: c, Level: 1}}},
			fails: map[string]string{"delivery": "no encryption of the message is for subtree"}},

		{name: "stale group key", ev: &Evidence{Tree: fresh.Tree, Keyed: fresh.Keyed,
			GroupKeyOf: func(id ident.ID) (keycrypt.Key, bool) {
				if id.Equal(b) {
					return staleKey, true
				}
				return fresh.Tree.GroupKey()
			}},
			fails: map[string]string{"coverage": "does not hold the interval's group key"}},
		{name: "stale keyring", ev: stale,
			fails: map[string]string{"coverage": "disagrees with the tree at level 0"}},
		{name: "fresh keyrings", ev: fresh},
		{name: "members but no server key", ev: &Evidence{Tree: mustTree(t), Keyed: []ident.ID{a},
			GroupKeyOf: func(ident.ID) (keycrypt.Key, bool) { return staleKey, true }},
			fails: map[string]string{"coverage": "no server group key"}},

		{name: "leaderless cluster", ev: &Evidence{Clusters: fakeClusters{prefix: inA}},
			fails: map[string]string{"cluster": "has no leader"}},
		{name: "outsider leader", ev: &Evidence{Clusters: fakeClusters{prefix: inA, leader: &overlay.Record{ID: outsider}}},
			fails: map[string]string{"cluster": "led by outsider"}},
		{name: "member senior to its leader", ev: &Evidence{Clusters: fakeClusters{prefix: inA,
			leader: &overlay.Record{ID: a, JoinTime: 5}, members: []overlay.Record{rec(a, 5), rec(b, 3)}}},
			fails: map[string]string{"cluster": "joined before leader"}},
		{name: "epoch backwards", ev: &Evidence{
			Clusters:  fakeClusters{prefix: inA, leader: &overlay.Record{ID: a, JoinTime: 5}, epoch: 1},
			LastEpoch: map[ident.Prefix]uint64{inA: 3}},
			fails: map[string]string{"cluster": "epoch went backwards: 3 -> 1"}},
		{name: "epoch restarts under an old leader", ev: &Evidence{IntervalStart: 10,
			Clusters:  fakeClusters{prefix: inA, leader: &overlay.Record{ID: a, JoinTime: 5}},
			LastEpoch: map[ident.Prefix]uint64{inA: 3}},
			fails: map[string]string{"cluster": "epoch went backwards: 3 -> 0"}},
		{name: "cluster re-formed this interval", ev: &Evidence{IntervalStart: 10,
			Clusters:  fakeClusters{prefix: inA, leader: &overlay.Record{ID: a, JoinTime: 12}},
			LastEpoch: map[ident.Prefix]uint64{inA: 3}}},
		{name: "leader departed", ev: &Evidence{Dir: evDir(t),
			Clusters: fakeClusters{prefix: evID(t, 15).Prefix(1), leader: &overlay.Record{ID: evID(t, 15)}}},
			fails: map[string]string{"cluster": "dead or departed"}},

		{name: "straggler with no rung", ev: &Evidence{Owed: []ident.ID{a, b},
			Ladder: &recovery.Outcome{RungOf: map[ident.ID]recovery.Rung{a: recovery.ByMulticast}}},
			fails: map[string]string{"coverage": "never got its key slice", "ladder": "no rung delivered"}},
		{name: "straggler that crashed", ev: &Evidence{Alive: func(id ident.ID) bool { return !id.Equal(b) },
			Owed:   []ident.ID{a, b},
			Ladder: &recovery.Outcome{RungOf: map[ident.ID]recovery.Rung{a: recovery.ByMulticast}}}},
		{name: "reachable member declared dead", ev: &Evidence{Owed: []ident.ID{a, b},
			Ladder: &recovery.Outcome{DeadInFlight: []ident.ID{b},
				RungOf: map[ident.ID]recovery.Rung{a: recovery.ByUnicast}}},
			fails: map[string]string{"coverage": "never got its key slice", "ladder": "declared dead in flight"}},
		{name: "unreachable member declared dead", ev: &Evidence{
			Alive: func(id ident.ID) bool { return !id.Equal(b) },
			Owed:  []ident.ID{a, b},
			Ladder: &recovery.Outcome{DeadInFlight: []ident.ID{b},
				RungOf: map[ident.ID]recovery.Rung{a: recovery.ByUnicast}}}},
		{name: "resynced without the rung", ev: &Evidence{Owed: []ident.ID{a},
			Ladder: &recovery.Outcome{Resynced: []ident.ID{a},
				RungOf: map[ident.ID]recovery.Rung{a: recovery.ByUnicast}}},
			fails: map[string]string{"ladder": "without the resync rung"}},
		{name: "backoff over the cap", ev: &Evidence{Ladder: &recovery.Outcome{MaxBackoff: 2 * time.Second, BackoffCap: time.Second}},
			fails: map[string]string{"ladder": "exceeds the cap"}},
		{name: "clean interval needed the ladder", ev: &Evidence{MustIdle: true, Owed: []ident.ID{a, b},
			Ladder: &recovery.Outcome{RungOf: map[ident.ID]recovery.Rung{a: recovery.ByMulticast, b: recovery.ByUnicast}}},
			fails: map[string]string{"ladder": "needed the ladder: 1 unicast"}},
	}
	for _, tc := range cases {
		verdicts, _ := Audit(tc.ev, nil)
		if len(verdicts) != len(AuditorNames()) {
			t.Fatalf("%s: %d verdicts for %d auditors", tc.name, len(verdicts), len(AuditorNames()))
		}
		for i, v := range verdicts {
			if v.Name != AuditorNames()[i] {
				t.Errorf("%s: verdict %d is %q, registry says %q", tc.name, i, v.Name, AuditorNames()[i])
			}
			want, shouldFail := tc.fails[v.Name]
			switch {
			case shouldFail && !strings.Contains(v.Line(), want):
				t.Errorf("%s: auditor %s reported %q, want a violation mentioning %q", tc.name, v.Name, v.Line(), want)
			case !shouldFail && v.Line() != "":
				t.Errorf("%s: auditor %s should pass, reported %q", tc.name, v.Name, v.Line())
			}
		}
	}
}

func mustTree(t *testing.T) *keytree.Tree {
	t.Helper()
	tree, err := keytree.New(evParams, []byte("empty"), keytree.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestAuditCounts pins the tallies the planes read back.
func TestAuditCounts(t *testing.T) {
	a, b, c := evID(t, 0), evID(t, 1), evID(t, 4)
	_, counts := Audit(&Evidence{
		Copies: []Copy{{a, 1}, {b, 0}, {c, 1}},
		Alive:  func(id ident.ID) bool { return !id.Equal(c) },
		Owed:   []ident.ID{a, b, c}, Ladder: &recovery.Outcome{RungOf: map[ident.ID]recovery.Rung{
			a: recovery.ByMulticast, b: recovery.ByResync, c: recovery.ByUnicast}},
	}, nil)
	want := Counts{CopiesDelivered: 2, CopiesLost: 1}
	want.ByRung[recovery.ByMulticast], want.ByRung[recovery.ByResync] = 1, 1 // c crashed: not tallied
	if counts != want {
		t.Errorf("counts = %+v, want %+v", counts, want)
	}
}
