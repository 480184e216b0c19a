package grouphost

import (
	"slices"
	"testing"
	"time"

	"tmesh/internal/cluster"
	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/rekeyd"
	"tmesh/internal/vnet"
	"tmesh/internal/workload"
)

// batchPlane adapts one owner of a keytree.Pending to the vocabulary of
// the batch scripts. A slot stands for one user across intervals: planes
// that take IDs map slot s to one fixed ID, planes that assign IDs
// themselves (core.Group, rekeyd.World) treat it as a host or ignore it.
type batchPlane struct {
	tree  *keytree.Tree
	base  []ident.ID // slots 0 and 1, keyed before the script starts
	join  func(slot int) ident.ID
	leave func(id ident.ID)
	crash func(id ident.ID) // nil: the plane has no crash, scripts leave instead
	flush func()
	keyed func(id ident.ID) bool // nil: the plane keeps no member state
}

var batchParams = ident.Params{Digits: 2, Base: 8}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func slotID(t *testing.T, params ident.Params, n int) ident.ID {
	t.Helper()
	id, err := ident.FromInt(params, n)
	must(t, err)
	return id
}

// seat joins slots 0 and 1 and flushes, for planes that start empty.
func (p *batchPlane) seat() *batchPlane {
	p.base = []ident.ID{p.join(0), p.join(1)}
	p.flush()
	return p
}

var batchPlanes = []struct {
	name string
	open func(t *testing.T) *batchPlane
}{
	{"pending", func(t *testing.T) *batchPlane {
		tree, err := keytree.New(batchParams, []byte("batch"), keytree.Opts{})
		must(t, err)
		var p keytree.Pending
		return (&batchPlane{
			tree:  tree,
			join:  func(slot int) ident.ID { id := slotID(t, batchParams, slot); p.Join(id); return id },
			leave: func(id ident.ID) { p.Leave(id) },
			flush: func() { _, _, _, err := tree.Flush(&p, 0); must(t, err) },
		}).seat()
	}},
	{"group", func(t *testing.T) *batchPlane {
		net, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), 8, 3)
		must(t, err)
		g, err := core.NewGroup(core.Config{Net: net, Assign: netAssign(), K: 2, Seed: 5})
		must(t, err)
		return (&batchPlane{
			tree: g.Tree(),
			join: func(slot int) ident.ID {
				id, _, err := g.Join(vnet.HostID(slot+1), time.Second)
				must(t, err)
				return id
			},
			leave: func(id ident.ID) { must(t, g.Leave(id)) },
			flush: func() {
				msg, err := g.ProcessInterval()
				must(t, err)
				_, err = g.DistributeRekey(msg)
				must(t, err)
			},
			keyed: func(id ident.ID) bool { _, ok := g.KeyringOf(id); return ok },
		}).seat()
	}},
	{"tenant", func(t *testing.T) *batchPlane {
		tn, err := newKeyTenant("batch", 8, []byte("batch"), nil)
		must(t, err)
		event := func(ev workload.Event) { must(t, tn.apply(ev)) }
		slotOf := make(map[ident.ID]int)
		return (&batchPlane{
			tree: tn.world.Tree(),
			join: func(slot int) ident.ID {
				id := slotID(t, tn.params, slot)
				slotOf[id] = slot
				event(workload.Event{Kind: workload.Join, Host: slot})
				return id
			},
			leave: func(id ident.ID) { event(workload.Event{Kind: workload.Leave, Victim: slotOf[id]}) },
			flush: func() { _, err := tn.flush(0); must(t, err) },
			keyed: func(id ident.ID) bool { return tn.world.Keyring(id) != nil },
		}).seat()
	}},
	{"cluster", func(t *testing.T) *batchPlane {
		// One slot per bottom cluster, so every user leads its own and
		// every join and leave reaches the leaders-only tree.
		m, err := cluster.New(batchParams, []byte("batch"), keytree.Opts{})
		must(t, err)
		joined := 0
		return (&batchPlane{
			tree: m.Tree(),
			join: func(slot int) ident.ID {
				joined++
				id := slotID(t, batchParams, slot*batchParams.Base)
				must(t, m.Join(overlay.Record{Host: vnet.HostID(slot + 1), ID: id, JoinTime: time.Duration(joined)}))
				return id
			},
			leave: func(id ident.ID) { must(t, m.Leave(id)) },
			flush: func() { _, err := m.Process(); must(t, err) },
		}).seat()
	}},
	{"world", func(t *testing.T) *batchPlane {
		w, err := rekeyd.NewWorld(rekeyd.WorldConfig{
			Params: ident.Params{Digits: 3, Base: 4}, K: 2, Seed: 7, InitialMembers: 2,
			Ladder: rekeyd.Config{
				Timeout: 150 * time.Millisecond, RetryBase: 50 * time.Millisecond,
				RetryMax: 200 * time.Millisecond, RetryBudget: 3, ResyncBudget: 5,
			},
		})
		must(t, err)
		t.Cleanup(func() { w.Close() })
		p := &batchPlane{
			tree:  w.Tree(),
			join:  func(int) ident.ID { id, err := w.Join(); must(t, err); return id },
			leave: func(id ident.ID) { must(t, w.Leave(id)) },
			crash: func(id ident.ID) {
				must(t, w.Crash(id))
				if _, up := w.Member(id); !up && w.IsKilled(id) {
					t.Errorf("crash of pending joiner %v left a kill a later holder of the ID would inherit", id)
				}
			},
			flush: func() {
				res, err := w.Rekey()
				must(t, err)
				if len(res.DeadInFlight) != 0 {
					t.Errorf("clean loopback interval lost %v", res.DeadInFlight)
				}
			},
			keyed: func(id ident.ID) bool { _, ok := w.Member(id); return ok },
		}
		for _, m := range w.Members() {
			p.base = append(p.base, m.ID())
		}
		return p
	}},
}

// batchScripts are the same-interval cases of Section 2.4's batch. Each
// returns the membership the flush must leave behind.
var batchScripts = []struct {
	name string
	run  func(t *testing.T, p *batchPlane) (want []ident.ID)
}{
	{"join+leave", func(t *testing.T, p *batchPlane) []ident.ID {
		gone := p.join(2)
		p.leave(gone)
		p.flush()
		p.expect(t, p.base, gone)
		// The cancelled pair must not poison the next interval.
		back := p.join(2)
		p.flush()
		return append(slices.Clone(p.base), back)
	}},
	{"leave+rejoin", func(t *testing.T, p *batchPlane) []ident.ID {
		old := p.base[0]
		oldKey, _ := p.tree.IndividualKey(old)
		oldGroup, _ := p.tree.GroupKey()
		p.leave(old)
		next := p.join(0)
		p.flush()
		key, ok := p.tree.IndividualKey(next)
		if !ok || key.Equal(oldKey) {
			t.Errorf("the holder of %v after a leave+rejoin must get a fresh individual key", next)
		}
		if group, _ := p.tree.GroupKey(); group.Equal(oldGroup) {
			t.Error("the group key must change when a member is replaced")
		}
		return []ident.ID{p.base[1], next}
	}},
	{"join+leave+join", func(t *testing.T, p *batchPlane) []ident.ID {
		p.leave(p.join(2))
		back := p.join(2)
		p.flush()
		return append(slices.Clone(p.base), back)
	}},
	{"crash of pending joiner", func(t *testing.T, p *batchPlane) []ident.ID {
		gone := p.join(2)
		if p.crash != nil {
			p.crash(gone)
		} else {
			p.leave(gone)
		}
		p.flush()
		p.expect(t, p.base, gone)
		return p.base
	}},
}

// expect checks the tree holds exactly want, and that members are keyed
// and the absent are not.
func (p *batchPlane) expect(t *testing.T, want []ident.ID, absent ...ident.ID) {
	t.Helper()
	want = slices.Clone(want)
	slices.SortFunc(want, ident.ID.Compare)
	if got := p.tree.Structure().Members(ident.EmptyPrefix); !slices.Equal(got, want) {
		t.Fatalf("tree holds %v, want %v", got, want)
	}
	must(t, p.tree.CheckStructure())
	if p.keyed == nil {
		return
	}
	for _, id := range want {
		if !p.keyed(id) {
			t.Errorf("member %v holds no keys", id)
		}
	}
	for _, id := range absent {
		if !slices.Contains(want, id) && p.keyed(id) {
			t.Errorf("%v never entered the batch but holds keys", id)
		}
	}
}

// TestBatchConformance runs the same-interval scripts against
// keytree.Pending itself and against every plane that queues into one:
// the one cancellation rule (DESIGN.md, "The batch") must read the same
// through all five.
func TestBatchConformance(t *testing.T) {
	for _, plane := range batchPlanes {
		for _, script := range batchScripts {
			t.Run(plane.name+"/"+script.name, func(t *testing.T) {
				p := plane.open(t)
				p.expect(t, p.base)
				p.expect(t, script.run(t, p))
			})
		}
	}
}
