package split

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/tmesh"
)

// filter is the reference REKEY-MESSAGE-SPLIT selection: every
// encryption relevant to the subtree, by a linear RelevantTo scan, in
// payload order. The result is nil when nothing is relevant.
func filter(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	var dst []keycrypt.Encryption
	for _, e := range encs {
		if e.RelevantTo(subtree) {
			dst = append(dst, e)
		}
	}
	return dst
}

// layout returns a copy of encs sorted into keytree.Message's layout:
// deeper IDs first, each length ascending by ID. Duplicates stay, in
// input order.
func layout(encs []keycrypt.Encryption) []keycrypt.Encryption {
	out := append([]keycrypt.Encryption(nil), encs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].ID.Key(), out[j].ID.Key()
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a < b
	})
	return out
}

// share is AppendShare into a fresh slice, nil when nothing is relevant
// (the reference filter's convention).
func share(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	if out := AppendShare(nil, encs, subtree); len(out) > 0 {
		return out
	}
	return nil
}

// randSplitWorld draws a random member tree and a message sorted into
// the layout for the differential property tests: most encryption IDs
// sit on existing tree nodes, but a fraction are "phantom" IDs absent
// from the tree (membership drifted from the key tree), and IDs may
// repeat.
func randSplitWorld(t *testing.T, rng *rand.Rand, params ident.Params, members, encCount int) (*ident.Tree, []keycrypt.Encryption) {
	t.Helper()
	used := make(map[ident.ID]bool)
	var ids []ident.ID
	for len(ids) < members {
		id, err := ident.FromInt(params, rng.Intn(params.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if !used[id] {
			used[id] = true
			ids = append(ids, id)
		}
	}
	tree, err := ident.BuildTree(params, ids)
	if err != nil {
		t.Fatal(err)
	}
	encs := make([]keycrypt.Encryption, encCount)
	for i := range encs {
		var id ident.Prefix
		if len(ids) > 0 && rng.Intn(5) > 0 {
			// Prefix of an existing member: an ID-tree node.
			id = ids[rng.Intn(len(ids))].Prefix(rng.Intn(params.Digits + 1))
		} else {
			// Arbitrary prefix, possibly absent from the tree.
			id = randPrefixOf(t, rng, params)
		}
		encs[i] = keycrypt.Encryption{ID: id, KeyVersion: uint64(i)}
	}
	return tree, layout(encs)
}

func randPrefixOf(t *testing.T, rng *rand.Rand, params ident.Params) ident.Prefix {
	t.Helper()
	l := rng.Intn(params.Digits + 1)
	digits := make([]ident.Digit, l)
	for i := range digits {
		digits[i] = rng.Intn(params.Base)
	}
	p, err := ident.PrefixOf(params, digits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkTreeShares splits every node of the tree from its parent's share,
// as the multicast does hop by hop, and every random prefix from the
// whole message, and compares each share with the reference filter over
// the whole message.
func checkTreeShares(t *testing.T, rng *rand.Rand, params ident.Params, tree *ident.Tree, encs []keycrypt.Encryption, what string) {
	t.Helper()
	shares := map[ident.Prefix][]keycrypt.Encryption{ident.EmptyPrefix: encs}
	check := func(q ident.Prefix, got []keycrypt.Encryption) {
		t.Helper()
		if want := filter(encs, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s subtree %v: share %v != filter %v", what, q, EncIDs(got), EncIDs(want))
		}
	}
	tree.Walk(func(p ident.Prefix, _ int) bool {
		if p.Len() > 0 {
			shares[p] = share(shares[p.Parent()], p)
		}
		check(p, shares[p])
		return true
	})
	check(ident.EmptyPrefix, share(encs, ident.EmptyPrefix))
	for i := 0; i < 25; i++ {
		q := randPrefixOf(t, rng, params)
		check(q, share(encs, q))
	}
}

// TestCompiledIndexMatchesFilter: for random messages in the layout and
// random trees, the share of every tree node split from its parent's
// share, and of random present or absent prefixes split from the whole
// message, equals the reference filter — covering empty messages,
// single-encryption messages, empty subtrees, phantom IDs and repeats.
func TestCompiledIndexMatchesFilter(t *testing.T) {
	for _, params := range []ident.Params{{Digits: 4, Base: 4}, {Digits: 3, Base: 64}} {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 120; trial++ {
			members := rng.Intn(30) + 1
			encCount := rng.Intn(40)
			switch trial {
			case 0:
				encCount = 0 // empty message
			case 1:
				encCount = 1 // single encryption
			}
			tree, encs := randSplitWorld(t, rng, params, members, encCount)
			checkTreeShares(t, rng, params, tree, encs, "random world")
		}
	}
}

// TestCompileArenaReuseMatchesFilter runs one HopSplitter over a long
// sequence of random worlds back to back, as one session's hops would
// fill its arena, keeps every share it returned, and only then checks
// each against the reference filter: a later share carved from the
// same chunk must not overwrite an earlier one.
func TestCompileArenaReuseMatchesFilter(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(202))
	hop := HopSplitter()
	type cut struct {
		encs, got []keycrypt.Encryption
		subtree   ident.Prefix
	}
	var cuts []cut
	for trial := 0; trial < 80; trial++ {
		tree, encs := randSplitWorld(t, rng, params, rng.Intn(30)+1, rng.Intn(50))
		tree.Walk(func(p ident.Prefix, _ int) bool {
			cuts = append(cuts, cut{encs, hop(encs, p), p})
			return true
		})
	}
	for i, c := range cuts {
		want := filter(c.encs, c.subtree)
		if len(c.got) != len(want) || len(want) > 0 && !reflect.DeepEqual(c.got, want) {
			t.Fatalf("cut %d subtree %v: share %v != filter %v", i, c.subtree, EncIDs(c.got), EncIDs(want))
		}
		if cap(c.got) != len(c.got) {
			t.Fatalf("cut %d: share has spare capacity %d: an append would write into the arena", i, cap(c.got)-len(c.got))
		}
	}
}

// TestCompiledIndexConcurrentSplit splits one payload from several
// goroutines under -race: AppendShare only reads the payload.
func TestCompiledIndexConcurrentSplit(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(7))
	tree, encs := randSplitWorld(t, rng, params, 40, 80)
	var nodes []ident.Prefix
	tree.Walk(func(p ident.Prefix, _ int) bool { nodes = append(nodes, p); return true })
	want := make([][]keycrypt.Encryption, len(nodes))
	for i, p := range nodes {
		want[i] = filter(encs, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []keycrypt.Encryption
			for i, p := range nodes {
				buf = AppendShare(buf[:0], encs, p)
				if len(buf) != len(want[i]) || len(buf) > 0 && !reflect.DeepEqual(buf, want[i]) {
					t.Errorf("concurrent split diverged at %v", p)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzAppendShare: a daemon member splits whatever a peer sent it, so
// AppendShare must be total on hostile payloads. The bytes decode into
// an ID space, a subtree and a payload of mixed-length IDs in any order
// with repeats. On every input the split must not panic and must return
// an in-order subsequence of the payload whose every element is
// relevant; on the payload sorted into the layout it must equal the
// reference filter.
func FuzzAppendShare(f *testing.F) {
	f.Add([]byte{3, 4, 2, 1, 2, 3, 1, 2, 3, 0, 1, 1, 1, 0, 0})
	f.Add([]byte{4, 6, 0, 4, 5, 4, 3, 2, 2, 5, 4, 1, 0, 3, 1, 2, 3, 4, 0})
	f.Add([]byte{2, 255, 1, 7, 2, 9, 9, 2, 9, 9, 1, 9, 0, 2, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		params := ident.Params{Digits: int(data[0])%5 + 1, Base: int(data[1])%255 + 2}
		data = data[2:]
		// next decodes one prefix: a length byte, then that many digits.
		next := func() ident.Prefix {
			l := int(data[0]) % (params.Digits + 1)
			data = data[1:]
			digits := make([]ident.Digit, 0, l)
			for len(digits) < l && len(data) > 0 {
				digits = append(digits, int(data[0])%params.Base)
				data = data[1:]
			}
			p, err := ident.PrefixOf(params, digits)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		if len(data) == 0 {
			return
		}
		subtree := next()
		var payload []keycrypt.Encryption
		for len(data) > 0 && len(payload) < 256 {
			payload = append(payload, keycrypt.Encryption{ID: next(), KeyVersion: uint64(len(payload))})
		}

		got := AppendShare(nil, payload, subtree)
		j := 0
		for _, e := range got {
			if !e.RelevantTo(subtree) {
				t.Fatalf("share of %v holds %v, which it does not need", subtree, e.ID)
			}
			for j < len(payload) && payload[j].KeyVersion != e.KeyVersion {
				j++
			}
			if j == len(payload) {
				t.Fatalf("share of %v is not an in-order subsequence of the payload", subtree)
			}
			j++
		}
		sorted := layout(payload)
		if got, want := share(sorted, subtree), filter(sorted, subtree); !reflect.DeepEqual(got, want) {
			t.Fatalf("laid-out payload, subtree %v: share %v != filter %v", subtree, EncIDs(got), EncIDs(want))
		}
	})
}

// legacyRekeyReport reruns the transport with the reference filter as
// the SplitHop on every hop — PerPacket runs FilterPackets — and
// assembles the same report shape, so the differential tests compare
// entire sessions, not just individual splits.
func legacyRekeyReport(t *testing.T, w *world, mode Mode, packetSize int) *Report {
	t.Helper()
	var (
		res        *tmesh.Result
		err        error
		deliveries []Delivery
	)
	switch mode {
	case PerEncryption:
		res, err = tmesh.Multicast(tmesh.Config[[]keycrypt.Encryption]{
			Dir:      w.dir,
			SizeOf:   func(encs []keycrypt.Encryption) int { return len(encs) },
			SplitHop: filter,
			OnDeliver: func(to ident.ID, encs []keycrypt.Encryption, level int) {
				deliveries = append(deliveries, Delivery{To: to, Level: level, Encryptions: encs})
			},
		}, w.msg.Encryptions)
	case PerPacket:
		res, err = tmesh.Multicast(tmesh.Config[[]Packet]{
			Dir: w.dir,
			SizeOf: func(pkts []Packet) int {
				n := 0
				for _, p := range pkts {
					n += len(p)
				}
				return n
			},
			SplitHop: FilterPackets,
			OnDeliver: func(to ident.ID, pkts []Packet, level int) {
				var flat []keycrypt.Encryption
				for _, p := range pkts {
					flat = append(flat, p...)
				}
				deliveries = append(deliveries, Delivery{To: to, Level: level, Encryptions: flat})
			},
		}, Packetize(w.msg.Encryptions, packetSize))
	default:
		t.Fatalf("legacyRekeyReport: unsupported mode %v", mode)
	}
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{
		ReceivedPerUser:  make(map[ident.ID]int, len(res.Users)),
		ForwardedPerUser: make(map[ident.ID]int, len(res.Users)),
		LinkUnits:        res.LinkUnits,
		Deliveries:       deliveries,
	}
	for key, st := range res.Users {
		rep.ReceivedPerUser[key] = st.UnitsReceived
		rep.ForwardedPerUser[key] = st.UnitsForwarded
		if st.Level == 1 {
			rep.ServerUnits += st.UnitsReceived
		}
	}
	return rep
}

// TestRekeyCompiledMatchesLegacyTransport: full-session differential —
// Rekey produces the same reports and the same delivery stream (order
// and contents) as the reference filter on every hop, in both splitting
// modes.
func TestRekeyCompiledMatchesLegacyTransport(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 21)
	for _, mode := range []Mode{PerEncryption, PerPacket} {
		want := legacyRekeyReport(t, w, mode, 4)
		got, err := Rekey(w.dir, w.msg, Options{Mode: mode, PacketSize: 4, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.ReceivedPerUser, want.ReceivedPerUser) {
			t.Errorf("%v: ReceivedPerUser diverged from the reference filter", mode)
		}
		if !reflect.DeepEqual(got.ForwardedPerUser, want.ForwardedPerUser) {
			t.Errorf("%v: ForwardedPerUser diverged from the reference filter", mode)
		}
		if !reflect.DeepEqual(got.LinkUnits, want.LinkUnits) {
			t.Errorf("%v: LinkUnits diverged from the reference filter", mode)
		}
		if got.ServerUnits != want.ServerUnits {
			t.Errorf("%v: ServerUnits = %d, reference %d", mode, got.ServerUnits, want.ServerUnits)
		}
		if !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
			t.Errorf("%v: delivery stream diverged from the reference filter", mode)
		}
	}
}

// TestRekeyCompiledTraceByteIdentical: the flight-recorder stream of a
// session split by HopSplitter is byte-for-byte the stream of the
// reference filter — per-hop Items, EncsIn/Encs counts, spans, all of it.
func TestRekeyCompiledTraceByteIdentical(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 33)
	run := func(splitHop func([]keycrypt.Encryption, ident.Prefix) []keycrypt.Encryption) []byte {
		var buf bytes.Buffer
		rec := trace.NewRecorder(5, obs.NewSink(&buf))
		tr := rec.Begin("rekey", 1, 0, PerEncryption.String(), EncIDs(w.msg.Encryptions))
		_, err := tmesh.Multicast(tmesh.Config[[]keycrypt.Encryption]{
			Dir:        w.dir,
			SizeOf:     func(encs []keycrypt.Encryption) int { return len(encs) },
			SplitHop:   splitHop,
			Trace:      tr,
			TraceItems: EncIDs,
		}, w.msg.Encryptions)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(filter), run(HopSplitter())) {
		t.Fatal("trace stream of the layout split differs from the reference filter's")
	}
}

// TestRekeyOptionDefaults pins the zero-value defaulting of
// split.Options on every Rekey path: Mode 0 is PerEncryption, and
// PacketSize <= 0 is 25 in PerPacket mode.
func TestRekeyOptionDefaults(t *testing.T) {
	w := newWorld(t, 30, 4, 4, 17)
	reportKey := func(rep *Report) [2]any {
		return [2]any{rep.ReceivedPerUser, rep.ServerUnits}
	}
	want, err := Rekey(w.dir, w.msg, Options{Mode: PerEncryption})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Rekey(w.dir, w.msg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reportKey(got), reportKey(want)) {
		t.Error("zero mode: report differs from explicit PerEncryption")
	}
	wantPkt, err := Rekey(w.dir, w.msg, Options{Mode: PerPacket, PacketSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"packet size zero":     {Mode: PerPacket},
		"packet size negative": {Mode: PerPacket, PacketSize: -3},
	} {
		got, err := Rekey(w.dir, w.msg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reportKey(got), reportKey(wantPkt)) {
			t.Errorf("%s: report differs from explicit PacketSize 25", name)
		}
	}
}

// TestPerPacketTelemetryMatchesPerEncryption: one-encryption packets
// split exactly as encryptions do, so PerPacket with PacketSize 1 must
// count the same split hops and forwarded encryptions as PerEncryption
// on one world and message, and a nonzero number of each.
func TestPerPacketTelemetryMatchesPerEncryption(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 29)
	counts := func(opts Options) [2]int64 {
		opts.Obs = obs.New()
		if _, err := Rekey(w.dir, w.msg, opts); err != nil {
			t.Fatal(err)
		}
		return [2]int64{opts.Obs.Counter("split_hops").Value(), opts.Obs.Counter("split_hop_forwarded_encryptions").Value()}
	}
	want := counts(Options{Mode: PerEncryption})
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("PerEncryption counted %d hops and %d forwarded encryptions", want[0], want[1])
	}
	if got := counts(Options{Mode: PerPacket, PacketSize: 1}); got != want {
		t.Errorf("PerPacket, 1 per packet: %d hops, %d forwarded encryptions; PerEncryption: %d, %d",
			got[0], got[1], want[0], want[1])
	}
}

// TestIndexSplitAllocatesNothing is the hot-path gate: a hop's share is
// binary searches over the payload and one copy into the caller's
// buffer, so AppendShare into a dst with room for the share, over any
// subtree of the member tree — present in the message or not — must
// not allocate.
func TestIndexSplitAllocatesNothing(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	tree, encs := randSplitWorld(t, rand.New(rand.NewSource(7)), params, 120, 60)
	var subtrees []ident.Prefix
	tree.Walk(func(p ident.Prefix, _ int) bool {
		subtrees = append(subtrees, p)
		return true
	})
	dst := make([]keycrypt.Encryption, 0, len(encs))
	sink, i := 0, 0
	allocs := testing.AllocsPerRun(4*len(subtrees), func() {
		sink += len(AppendShare(dst, encs, subtrees[i%len(subtrees)]))
		i++
	})
	if allocs != 0 {
		t.Errorf("AppendShare allocates %.2f times per hop, want 0", allocs)
	}
	if sink == 0 {
		t.Error("every split came back empty: the split was not exercised")
	}
}

// TestRekeyHopPathAllocatesNothing is the session-level hop-path gate: a
// rekey session allocates per session (result maps, slabs, arena
// chunks), but not per hop. Two GT-ITM worlds of different size give two
// (hops, allocations) points; the slope between them is the cost of one
// more hop, and it must stay near zero.
func TestRekeyHopPathAllocatesNothing(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 8}
	point := func(n int) (hops, allocs float64) {
		w := newWorldIn(t, params, n, n/10, n/10, 11)
		opts := Options{Mode: PerEncryption}
		rep, err := Rekey(w.dir, w.msg, opts)
		if err != nil {
			t.Fatal(err)
		}
		hops = float64(rep.Multicast.SenderStress)
		for _, u := range rep.Multicast.Users {
			hops += float64(u.Stress)
		}
		return hops, testing.AllocsPerRun(3, func() {
			if _, err := Rekey(w.dir, w.msg, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	h1, a1 := point(150)
	h2, a2 := point(900)
	if h2-h1 < 500 {
		t.Fatalf("hops %v -> %v: the worlds are too close in size to measure a slope", h1, h2)
	}
	perHop := (a2 - a1) / (h2 - h1)
	t.Logf("%v allocs over %v hops, %v over %v: %.4f per hop", a1, h1, a2, h2, perHop)
	if perHop >= 0.1 {
		t.Errorf("a rekey session allocates %.3f times per hop, want < 0.1", perHop)
	}
}
