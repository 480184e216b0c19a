package rekeyd

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/transport"
	"tmesh/internal/vnet"
	"tmesh/internal/work"
)

// churn schedules n leaves (drawn by rng) and n joins and runs the
// interval.
func churn(t *testing.T, w *World, rng *rand.Rand, n int) *Result {
	t.Helper()
	members := w.Members()
	for _, v := range rng.Perm(len(members))[:n] {
		if err := w.Leave(members[v].ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Join(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := w.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertAllMulticast(t *testing.T, res *Result) {
	t.Helper()
	for key, rung := range res.RungOf {
		if rung != recovery.ByMulticast {
			t.Fatalf("interval %d: member %q keyed by rung %v in a clean interval", res.Interval, key, rung)
		}
	}
}

// patientConfig is testConfig with a multicast wait no scheduler hiccup
// reaches: a member left off the multicast — its hop sent to a dead
// port, or never sent — can then only be keyed by the unicast rung,
// where assertAllMulticast sees it.
func patientConfig(kind string, members int) WorldConfig {
	cfg := testConfig(kind, members)
	cfg.Ladder.Timeout = 3 * time.Second
	return cfg
}

// TestIDReuseAtNewLocator churns a 64-ID space over UDP until IDs are
// certainly re-drawn by joiners bound to other ports, and requires every
// interval to stay pure multicast: no forwarder may still hold the
// locator of the previous owner of an ID.
func TestIDReuseAtNewLocator(t *testing.T) {
	check := guardGoroutines(t)
	w, err := NewWorld(patientConfig("udp", 40))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	lastAddr := make(map[string]string) // where each ID last lived
	redrawn := 0
	for i := 0; i < 60; i++ {
		res := churn(t, w, rng, 4)
		assertConverged(t, w, res)
		assertAllMulticast(t, res)
		for _, m := range w.Members() {
			addr, key := m.tr.Addr(), m.ID().Key()
			if old, seen := lastAddr[key]; seen && old != addr {
				redrawn++
			}
			lastAddr[key] = addr
		}
	}
	if redrawn < 20 {
		t.Fatalf("only %d IDs were re-drawn at a new locator; the test did not exercise reuse", redrawn)
	}
	w.Close()
	check()
}

// TestPeerSetInvariant pins what World.Rekey leaves registered: a member
// endpoint knows the server and live members it has forwarded to, each
// at the registry's current locator, and the ID of a member that left
// is unknown everywhere by the end of the interval it left in.
func TestPeerSetInvariant(t *testing.T) {
	for _, kind := range []string{"loopback", "udp"} {
		t.Run(kind, func(t *testing.T) {
			cfg := patientConfig(kind, 40)
			cfg.HostBudget = 400 // 100 intervals × 3 joiners, a fresh host each
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			params := w.cfg.Params
			rng := rand.New(rand.NewSource(2))
			forwarded := 0
			for i := 0; i < 100; i++ {
				res := churn(t, w, rng, 3)
				assertConverged(t, w, res)
				endpoints := map[transport.PeerID]transport.Transport{transport.ServerID: w.srv.tr}
				for _, m := range w.Members() {
					endpoints[PeerOf(m.ID())] = m.tr
				}
				for n := 0; n < params.Capacity(); n++ {
					id, _ := ident.FromInt(params, n)
					peer := PeerOf(id)
					loc, published := locatorOf(w.sh, peer)
					if _, live := w.Member(id); live != published {
						t.Fatalf("interval %d: %v live=%v but published=%v", res.Interval, id, live, published)
					}
					for self, tr := range endpoints {
						st, known := tr.Status(peer)
						if !known {
							continue
						}
						if !published {
							t.Fatalf("interval %d: departed %v still registered at %q", res.Interval, id, self)
						}
						if st.Addr != loc {
							t.Fatalf("interval %d: %q holds %v at %s, registry says %s", res.Interval, self, id, st.Addr, loc)
						}
						if self == transport.ServerID {
							continue
						}
						w.sh.locMu.Lock()
						me, l := w.sh.locs[self], w.sh.locs[peer]
						resolved, inverse := l.heldBy[self] == me, me.holds[peer] == l
						w.sh.locMu.Unlock()
						if !resolved || !inverse {
							t.Fatalf("interval %d: %q holds %v without having resolved it (heldBy %v, holds %v)", res.Interval, self, id, resolved, inverse)
						}
						forwarded++
					}
				}
				// The registry keeps no reference to an endpoint that is gone.
				w.sh.locMu.Lock()
				for peer, l := range w.sh.locs {
					for self, o := range l.heldBy {
						if endpoints[self] != o.tr {
							t.Fatalf("interval %d: registry entry %q is held by departed endpoint %q", res.Interval, peer, self)
						}
					}
					for to, o := range l.holds {
						if endpoints[to] != o.tr {
							t.Fatalf("interval %d: registry entry %q holds departed endpoint %q", res.Interval, peer, to)
						}
					}
				}
				w.sh.locMu.Unlock()
			}
			if forwarded == 0 {
				t.Fatal("no member ever registered a neighbour: FORWARD did not resolve through the registry")
			}
			// Far from a mesh: a member registers the few neighbours it
			// forwards to, not the group.
			for _, m := range w.Members() {
				n := 0
				for _, o := range w.Members() {
					if _, ok := m.tr.Status(PeerOf(o.ID())); ok {
						n++
					}
				}
				if n > w.Size()/2 {
					t.Fatalf("member %v registers %d of %d members", m.ID(), n, w.Size())
				}
			}
		})
	}
}

// locatorOf reads the registry: where id is published to live.
func locatorOf(sh *Shared, id transport.PeerID) (string, bool) {
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	if l := sh.locs[id]; l != nil {
		return l.tr.Addr(), true
	}
	return "", false
}

// meshedWorld is a daemon assembled from the package's public pieces by
// a caller that keeps its own peer tables — every endpoint registered
// with every other by hand, the locator registry never written. It is
// how bench/daemon.go builds its traced world.
type meshedWorld struct {
	params  ident.Params
	sh      *Shared
	tree    *keytree.Tree
	srv     *Server
	srvTr   transport.Transport
	members map[string]*Member
	trs     map[string]transport.Transport
	host    vnet.HostID
}

func newMeshedWorld(t *testing.T, params ident.Params) *meshedWorld {
	t.Helper()
	top, err := vnet.NewGTITM(vnet.SoakGTITMConfig(), 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := overlay.NewDirectory(params, 2, top, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := keytree.New(params, []byte("meshed"), keytree.Opts{RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	w := &meshedWorld{params: params, sh: NewShared(dir), tree: tree,
		members: make(map[string]*Member), trs: make(map[string]transport.Transport)}
	if w.srvTr, err = transport.NewUDP("127.0.0.1:0", transport.Config{ID: transport.ServerID}); err != nil {
		t.Fatal(err)
	}
	if w.srv, err = NewServer(Config{Params: params, Timeout: 3 * time.Second}, w.srvTr, w.sh, tree); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *meshedWorld) rekey(t *testing.T, joins, leaves []ident.ID) *Result {
	t.Helper()
	recs := make([]overlay.Record, len(joins))
	w.sh.Write(func(dir *overlay.Directory) {
		for i, id := range joins {
			w.host++
			recs[i] = overlay.Record{Host: w.host, ID: id, JoinTime: time.Duration(w.host)}
			if err := dir.Join(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range leaves {
			if err := dir.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	for _, id := range leaves {
		key := id.Key()
		w.members[key].Close()
		delete(w.members, key)
		delete(w.trs, key)
		w.srvTr.RemovePeer(PeerOf(id))
		for _, other := range w.trs {
			other.RemovePeer(PeerOf(id))
		}
	}
	plan, err := w.tree.Mark(joins, leaves)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := w.tree.Regenerate(plan, work.Width())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		kr, err := w.tree.JoinKeyring(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		peer := PeerOf(rec.ID)
		tr, err := transport.NewUDP("127.0.0.1:0", transport.Config{ID: peer})
		if err != nil {
			t.Fatal(err)
		}
		tr.AddPeer(transport.ServerID, w.srvTr.Addr())
		w.srvTr.AddPeer(peer, tr.Addr())
		for k, other := range w.trs {
			tr.AddPeer(transport.PeerID(k), other.Addr())
			other.AddPeer(peer, tr.Addr())
		}
		w.trs[rec.ID.Key()] = tr
		w.members[rec.ID.Key()] = NewMember(rec.ID, w.params, tr, w.sh, kr, msg.Interval, nil)
	}
	expected := make([]ident.ID, 0, len(w.members))
	for _, m := range w.members {
		expected = append(expected, m.id)
	}
	slices.SortFunc(expected, ident.ID.Compare)
	res, err := w.srv.Distribute(msg, expected)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (w *meshedWorld) close() {
	for _, m := range w.members {
		m.Close()
	}
	w.srv.Close()
}

// TestExternallyMeshedWorld protects callers that predate the registry
// (the traced benchmark is one): with no locator published, forward is
// a plain Send over whatever peer table the caller built, and every
// member is still keyed by multicast.
func TestExternallyMeshedWorld(t *testing.T) {
	check := guardGoroutines(t)
	params := ident.Params{Digits: 3, Base: 4}
	w := newMeshedWorld(t, params)
	var live []ident.ID
	for _, n := range rand.New(rand.NewSource(4)).Perm(params.Capacity()) {
		id, _ := ident.FromInt(params, n)
		live = append(live, id)
	}
	spare := live[40:]
	live = slices.Clone(live[:40])
	slices.SortFunc(live, ident.ID.Compare)
	res := w.rekey(t, live, nil)
	for i := 0; i < 10; i++ {
		// Two leave, two of the spare IDs join, the leavers' IDs go spare.
		joins, leaves := slices.Clone(spare[:2]), slices.Clone(live[i:i+2])
		spare = append(spare[2:], leaves...)
		live = append(slices.Delete(live, i, i+2), joins...)
		slices.SortFunc(joins, ident.ID.Compare)
		slices.SortFunc(live, ident.ID.Compare)
		res = w.rekey(t, joins, leaves)
		if len(res.DeadInFlight) != 0 || !res.Acked() || res.Expected != 40 {
			t.Fatalf("interval %d: %d/%d acked, dead %v", res.Interval, len(res.RungOf), res.Expected, res.DeadInFlight)
		}
		assertAllMulticast(t, res)
	}
	w.sh.locMu.Lock()
	written := len(w.sh.locs)
	w.sh.locMu.Unlock()
	if written != 0 {
		t.Fatalf("registry holds %d locators nobody published", written)
	}
	w.close()
	check()
}

// TestTCPWorldAtSize: registration follows use, so a TCP world dials
// server ↔ member plus the neighbours actually forwarded to. With every
// member dialing every member, 256 members need 2 × 256² sockets and
// set-up dies on the descriptor limit.
func TestTCPWorldAtSize(t *testing.T) {
	if testing.Short() {
		t.Skip("256-member TCP world")
	}
	check := guardGoroutines(t)
	cfg := patientConfig("tcp", 256)
	cfg.Params, cfg.K = ident.Params{Digits: 4, Base: 16}, 3
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5; i++ {
		res := churn(t, w, rng, 8)
		assertConverged(t, w, res)
		assertAllMulticast(t, res)
	}
	w.Close()
	check()
}

// TestRegistryConcurrentResolve runs the one concurrent path under the
// race detector: node goroutines resolving locators through forward
// while the driver publishes and withdraws others. Whatever the
// interleaving, a withdrawn ID must end up unknown at every endpoint
// that resolved it.
func TestRegistryConcurrentResolve(t *testing.T) {
	sw := transport.NewSwitch()
	sh := NewShared(nil)
	const senders, targets = 8, 32
	endpoint := func(id transport.PeerID) transport.Transport {
		tr, err := transport.NewLoopback(sw, transport.Config{ID: id})
		if err != nil {
			t.Fatal(err)
		}
		tr.SetHandler(func(transport.PeerID, []byte) {})
		t.Cleanup(func() { tr.Close() })
		return tr
	}
	target := func(i int) transport.PeerID { return transport.PeerID(fmt.Sprintf("t%02d", i)) }
	targetTr := make(map[transport.PeerID]transport.Transport)
	for i := 0; i < targets; i++ {
		targetTr[target(i)] = endpoint(target(i))
	}
	var trs []transport.Transport
	for i := 0; i < senders; i++ {
		trs = append(trs, endpoint(transport.PeerID(fmt.Sprintf("s%d", i))))
		sh.publish(trs[i])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Unknown peer when the registry has just withdrawn it.
				tr.Send(sh.resolve(tr, ident.IDFromKey(string(target(rng.Intn(targets))))), []byte{1})
			}
		}()
	}
	rng := rand.New(rand.NewSource(99))
	published := make(map[transport.PeerID]bool)
	for i := 0; i < 4000; i++ {
		id := target(rng.Intn(targets))
		if published[id] {
			sh.withdraw(id)
			for _, tr := range trs {
				if _, known := tr.Status(id); known {
					t.Fatalf("step %d: %s still registered at %s after withdraw returned", i, id, tr.ID())
				}
			}
		} else {
			sh.publish(targetTr[id])
		}
		published[id] = !published[id]
	}
	close(stop)
	wg.Wait()
	for _, tr := range trs {
		sh.withdraw(tr.ID())
	}
	sh.locMu.Lock()
	defer sh.locMu.Unlock()
	for id, l := range sh.locs {
		if len(l.heldBy) != 0 {
			t.Fatalf("%s still held by %d withdrawn senders", id, len(l.heldBy))
		}
	}
}
