package split

import (
	"math/rand"
	"testing"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

var tp = ident.Params{Digits: 3, Base: 4}

func mustPrefix(t *testing.T, digits ...ident.Digit) ident.Prefix {
	t.Helper()
	p, err := ident.PrefixOf(tp, digits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFilter(t *testing.T) {
	encs := []keycrypt.Encryption{
		{ID: ident.EmptyPrefix},      // relevant to everyone
		{ID: mustPrefix(t, 1)},       // subtree [1]
		{ID: mustPrefix(t, 1, 2)},    // subtree [1,2]
		{ID: mustPrefix(t, 3)},       // subtree [3]
		{ID: mustPrefix(t, 1, 2, 0)}, // individual key [1,2,0]
	}
	got := Filter(encs, mustPrefix(t, 1))
	if len(got) != 4 {
		t.Errorf("Filter([1]) kept %d, want 4 (all but [3])", len(got))
	}
	got = Filter(encs, mustPrefix(t, 1, 2))
	if len(got) != 4 {
		t.Errorf("Filter([1,2]) kept %d, want 4", len(got))
	}
	got = Filter(encs, mustPrefix(t, 2))
	if len(got) != 1 {
		t.Errorf("Filter([2]) kept %d, want 1 (the root encryption)", len(got))
	}
	got = Filter(encs, mustPrefix(t, 1, 0))
	if len(got) != 2 {
		t.Errorf("Filter([1,0]) kept %d, want 2 ([] and [1])", len(got))
	}
	if Filter(nil, mustPrefix(t, 1)) != nil {
		t.Error("Filter(nil) should be nil")
	}
}

func TestPacketize(t *testing.T) {
	encs := make([]keycrypt.Encryption, 10)
	pkts := Packetize(encs, 3)
	if len(pkts) != 4 {
		t.Fatalf("10 encs in packets of 3 = %d packets, want 4", len(pkts))
	}
	if len(pkts[3]) != 1 {
		t.Errorf("last packet has %d, want 1", len(pkts[3]))
	}
	if got := Packetize(encs, 0); len(got) != 10 {
		t.Errorf("packet size 0 should clamp to 1, got %d packets", len(got))
	}
	if got := Packetize(nil, 5); got != nil {
		t.Error("Packetize(nil) should be nil")
	}
}

// TestPacketizeCopies is the regression test for the aliasing bug where
// Packetize returned sub-slices of the caller's backing array: mutating
// a packet element corrupted the input message, and appending to a
// packet overwrote the first element of the next one.
func TestPacketizeCopies(t *testing.T) {
	encs := make([]keycrypt.Encryption, 6)
	for i := range encs {
		encs[i] = keycrypt.Encryption{ID: mustPrefix(t, i%4), KeyVersion: uint64(i)}
	}
	pkts := Packetize(encs, 2)
	pkts[0][0].KeyVersion = 999
	if encs[0].KeyVersion == 999 {
		t.Error("mutating a packet element reached through to the input slice")
	}
	_ = append(pkts[0], keycrypt.Encryption{KeyVersion: 888})
	if pkts[1][0].KeyVersion == 888 || encs[2].KeyVersion == 888 {
		t.Error("appending to a packet overwrote its neighbour's backing array")
	}
}

func TestFilterPackets(t *testing.T) {
	p1 := Packet{{ID: mustPrefix(t, 1)}, {ID: mustPrefix(t, 3)}}
	p2 := Packet{{ID: mustPrefix(t, 3)}}
	got := FilterPackets([]Packet{p1, p2}, mustPrefix(t, 1))
	if len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("FilterPackets kept %v, want the whole mixed packet", got)
	}
}

func TestModeString(t *testing.T) {
	if NoSplit.String() != "no-split" || PerEncryption.String() != "per-encryption" || PerPacket.String() != "per-packet" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode formatting wrong")
	}
}

// world builds a directory and a matching key tree with n random users,
// then applies one churn batch (l leaves, j joins) and returns everything
// needed to transport the resulting rekey message.
type world struct {
	dir  *overlay.Directory
	tree *keytree.Tree
	msg  *keytree.Message
	live []ident.ID
}

func newWorld(t *testing.T, n, j, l int, seed int64) *world {
	t.Helper()
	return newWorldIn(t, tp, n, j, l, seed)
}

// newWorldIn is newWorld over an ID space of the given shape.
func newWorldIn(t *testing.T, tp ident.Params, n, j, l int, seed int64) *world {
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
	net, err := vnet.NewGTITM(cfg, n+j+1, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := overlay.NewDirectory(tp, 2, net, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := keytree.New(tp, []byte("split-test"), keytree.Opts{RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	used := make(map[string]bool)
	nextHost := 1
	draw := func() ident.ID {
		for {
			id, err := ident.FromInt(tp, rng.Intn(tp.Capacity()))
			if err != nil {
				t.Fatal(err)
			}
			if !used[id.Key()] {
				used[id.Key()] = true
				return id
			}
		}
	}
	var initial []ident.ID
	for i := 0; i < n; i++ {
		id := draw()
		initial = append(initial, id)
		if err := dir.Join(overlay.Record{Host: vnet.HostID(nextHost), ID: id}); err != nil {
			t.Fatal(err)
		}
		nextHost++
	}
	if _, err := tree.Batch(initial, nil); err != nil {
		t.Fatal(err)
	}

	// Churn: l leavers from the initial set, j joiners.
	leavers := initial[:l]
	var joiners []ident.ID
	for i := 0; i < j; i++ {
		id := draw()
		joiners = append(joiners, id)
		if err := dir.Join(overlay.Record{Host: vnet.HostID(nextHost), ID: id}); err != nil {
			t.Fatal(err)
		}
		nextHost++
	}
	for _, id := range leavers {
		if err := dir.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	msg, err := tree.Batch(joiners, leavers)
	if err != nil {
		t.Fatal(err)
	}
	live := append(append([]ident.ID(nil), initial[l:]...), joiners...)
	return &world{dir: dir, tree: tree, msg: msg, live: live}
}

// TestCorollary1 verifies the splitting scheme's correctness: a user
// receives a given encryption exactly once iff the encryption is needed
// by the user or by at least one of its downstream users.
func TestCorollary1(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 42)
	counts := make(map[string]map[string]int) // user -> encID/keyID -> copies
	encKey := func(e keycrypt.Encryption) string { return e.ID.Key() + "|" + e.KeyID.Key() }

	rep, err := Rekey(w.dir, w.msg, Options{Mode: PerEncryption, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Deliveries {
		m := counts[d.To.Key()]
		if m == nil {
			m = make(map[string]int)
			counts[d.To.Key()] = m
		}
		for _, e := range d.Encryptions {
			m[encKey(e)]++
		}
	}

	// Reconstruct downstream sets from upstream pointers.
	upstream := make(map[string]string) // user -> upstream user ("" = server)
	for key, st := range rep.Multicast.Users {
		if st.UpstreamID.IsZero() {
			upstream[key] = ""
		} else {
			upstream[key] = st.UpstreamID.Key()
		}
	}
	inSubtreeOf := func(u, anc string) bool {
		for at := u; ; {
			if at == anc {
				return true
			}
			next, ok := upstream[at]
			if !ok || next == "" {
				return false
			}
			at = next
		}
	}

	for _, u := range w.live {
		// Needed-by-u-or-downstream set.
		for _, e := range w.msg.Encryptions {
			want := 0
			for _, v := range w.live {
				if e.NeededBy(v) && inSubtreeOf(v.Key(), u.Key()) {
					want = 1
					break
				}
			}
			got := counts[u.Key()][encKey(e)]
			if got != want {
				t.Fatalf("user %v received encryption %v(%v) %d times, want %d",
					u, e.KeyID, e.ID, got, want)
			}
		}
	}
}

// TestSplittingReducesBandwidth: encryption-level splitting strictly cuts
// per-user received units versus no splitting, and packet-level lands in
// between.
func TestSplittingReducesBandwidth(t *testing.T) {
	w := newWorld(t, 45, 8, 8, 7)
	full := w.msg.Cost()
	if full == 0 {
		t.Fatal("batch produced an empty rekey message")
	}
	reports := map[Mode]*Report{}
	for _, mode := range []Mode{NoSplit, PerEncryption, PerPacket} {
		rep, err := Rekey(w.dir, w.msg, Options{Mode: mode, PacketSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		reports[mode] = rep
	}
	var sumNone, sumEnc, sumPkt int
	for _, u := range w.live {
		none := reports[NoSplit].ReceivedPerUser[u.Key()]
		enc := reports[PerEncryption].ReceivedPerUser[u.Key()]
		pkt := reports[PerPacket].ReceivedPerUser[u.Key()]
		if none != full {
			t.Errorf("user %v received %d without splitting, want full %d", u, none, full)
		}
		if enc > none {
			t.Errorf("user %v: splitting increased received units %d > %d", u, enc, none)
		}
		if pkt < enc || pkt > none {
			t.Errorf("user %v: packet-level %d outside [enc %d, none %d]", u, pkt, enc, none)
		}
		sumNone += none
		sumEnc += enc
		sumPkt += pkt
	}
	if !(sumEnc < sumPkt && sumPkt < sumNone) {
		t.Errorf("aggregate received units: enc %d, pkt %d, none %d; want enc < pkt < none",
			sumEnc, sumPkt, sumNone)
	}
	if reports[PerEncryption].ServerUnits >= reports[NoSplit].ServerUnits {
		t.Errorf("server emitted %d units split vs %d unsplit",
			reports[PerEncryption].ServerUnits, reports[NoSplit].ServerUnits)
	}
}

// TestSplitDecryptability: after splitting, every remaining user can
// still update its entire key path (real crypto end to end).
func TestSplitDecryptability(t *testing.T) {
	w := newWorld(t, 30, 5, 5, 99)
	// Build a fresh key tree whose initial members are the directory's
	// current users, capture everyone's keyring, then churn once more
	// and deliver that batch's message with splitting.
	rings := make(map[string]*keytree.Keyring)
	tree, err := keytree.New(tp, []byte("split-decrypt"), keytree.Opts{RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	initial := append([]ident.ID(nil), w.live...)
	if _, err := tree.Batch(initial, nil); err != nil {
		t.Fatal(err)
	}
	for _, u := range initial {
		path, err := tree.PathKeys(u)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := keytree.NewKeyring(tp, u, path)
		if err != nil {
			t.Fatal(err)
		}
		rings[u.Key()] = kr
	}
	leavers := initial[:4]
	for _, u := range leavers {
		if err := w.dir.Leave(u); err != nil {
			t.Fatal(err)
		}
		delete(rings, u.Key())
	}
	msg, err := tree.Batch(nil, leavers)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Rekey(w.dir, msg, Options{Mode: PerEncryption, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]keycrypt.Encryption)
	for _, d := range rep.Deliveries {
		got[d.To.Key()] = append(got[d.To.Key()], d.Encryptions...)
	}
	wantGroup, ok := tree.GroupKey()
	if !ok {
		t.Fatal("no group key")
	}
	for key, kr := range rings {
		sub := &keytree.Message{Interval: msg.Interval, Encryptions: got[key]}
		if _, err := kr.Apply(sub); err != nil {
			t.Fatalf("user %v applying split message: %v", kr.ID(), err)
		}
		gk, ok := kr.GroupKey()
		if !ok || !gk.Equal(wantGroup) {
			t.Fatalf("user %v did not converge to the new group key", kr.ID())
		}
	}
}

func TestRekeyValidation(t *testing.T) {
	w := newWorld(t, 5, 0, 0, 3)
	if _, err := Rekey(nil, w.msg, Options{}); err == nil {
		t.Error("nil directory should fail")
	}
	if _, err := Rekey(w.dir, nil, Options{}); err == nil {
		t.Error("nil message should fail")
	}
	if _, err := Rekey(w.dir, w.msg, Options{Mode: Mode(9)}); err == nil {
		t.Error("unknown mode should fail")
	}
}
