package split

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/tmesh"
)

// randSplitWorld draws a random member tree and message for the
// differential property tests: most encryption IDs sit on existing
// tree nodes, but a fraction are "phantom" IDs absent from the tree
// (membership drifted from the key tree), exercising the compiler's
// hoisted marks.
func randSplitWorld(t *testing.T, rng *rand.Rand, params ident.Params, members, encCount int) (*ident.Tree, []keycrypt.Encryption) {
	t.Helper()
	used := make(map[string]bool)
	var ids []ident.ID
	for len(ids) < members {
		id, err := ident.FromInt(params, rng.Intn(params.Capacity()))
		if err != nil {
			t.Fatal(err)
		}
		if !used[id.Key()] {
			used[id.Key()] = true
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
	return tree, encs
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

// TestCompiledIndexMatchesFilter: for random messages and trees, the
// compiled per-encryption split equals the legacy RelevantTo filter for
// every tree node (root included), every random subtree (present or
// absent), at compile parallelism 1 and 8 — covering empty messages,
// single-encryption messages, empty subtrees, and phantom IDs.
func TestCompiledIndexMatchesFilter(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
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
		for _, workers := range []int{1, 8} {
			ix := NewIndex(tree, encs, workers)
			check := func(q ident.Prefix) {
				got := ix.Split(encs, q)
				want := Filter(encs, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d workers %d subtree %v: compiled %v != filter %v",
						trial, workers, q, EncIDs(got), EncIDs(want))
				}
			}
			tree.Walk(func(p ident.Prefix, _ int) bool { check(p); return true })
			check(ident.EmptyPrefix)
			for i := 0; i < 25; i++ {
				check(randPrefixOf(t, rng, params))
			}
		}
	}
	// Empty tree: everything falls back to the legacy filter.
	tree, err := ident.BuildTree(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	encs := []keycrypt.Encryption{{ID: randPrefixOf(t, rng, params)}}
	ix := NewIndex(tree, encs, 4)
	for i := 0; i < 20; i++ {
		q := randPrefixOf(t, rng, params)
		if !reflect.DeepEqual(ix.Split(encs, q), Filter(encs, q)) {
			t.Fatalf("empty tree: compiled split diverged at %v", q)
		}
	}
}

// TestCompileArenaReuseMatchesFilter compiles a long sequence of random
// worlds back to back, varying tree shape, message size, and GOMAXPROCS
// between compiles, so the parallel build and its merge run at widths 3
// and 8 whatever the host's core count, and checks each index against
// the legacy filter at every tree node.
func TestCompileArenaReuseMatchesFilter(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 80; trial++ {
		members := rng.Intn(30) + 1
		encCount := rng.Intn(50)
		tree, encs := randSplitWorld(t, rng, params, members, encCount)
		workers := []int{1, 8, 3}[trial%3]
		prev := runtime.GOMAXPROCS(workers)
		ix := NewIndex(tree, encs, workers)
		runtime.GOMAXPROCS(prev)
		check := func(q ident.Prefix) {
			got := ix.Split(encs, q)
			want := Filter(encs, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d subtree %v: compiled %v != filter %v",
					trial, workers, q, EncIDs(got), EncIDs(want))
			}
		}
		tree.Walk(func(p ident.Prefix, _ int) bool { check(p); return true })
		check(ident.EmptyPrefix)
		for i := 0; i < 15; i++ {
			check(randPrefixOf(t, rng, params))
		}
	}
}

// TestCompiledIndexConcurrentSplit hammers one index from several
// goroutines under -race: Split is read-only after compilation.
func TestCompiledIndexConcurrentSplit(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	rng := rand.New(rand.NewSource(7))
	tree, encs := randSplitWorld(t, rng, params, 40, 80)
	ix := NewIndex(tree, encs, 8)
	var nodes []ident.Prefix
	tree.Walk(func(p ident.Prefix, _ int) bool { nodes = append(nodes, p); return true })
	want := make([][]keycrypt.Encryption, len(nodes))
	for i, p := range nodes {
		want[i] = Filter(encs, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range nodes {
				if got := ix.Split(encs, p); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent split diverged at %v", p)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// legacyRekeyReport reruns the transport the way Rekey worked before the
// compiled index — a plain Filter/FilterPackets SplitHop on every hop —
// and assembles the same report shape, so the differential tests compare
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
			SplitHop: Filter,
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
		ReceivedPerUser:  make(map[string]int, len(res.Users)),
		ForwardedPerUser: make(map[string]int, len(res.Users)),
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
// the compiled Rekey path produces the same reports and the same
// delivery stream (order and contents) as the legacy per-hop filter, in
// both splitting modes, at compile parallelism 0 and 8.
func TestRekeyCompiledMatchesLegacyTransport(t *testing.T) {
	w := newWorld(t, 40, 6, 6, 21)
	for _, mode := range []Mode{PerEncryption, PerPacket} {
		want := legacyRekeyReport(t, w, mode, 4)
		for _, par := range []int{0, 8} {
			got, err := Rekey(w.dir, w.msg, Options{Mode: mode, PacketSize: 4, Collect: true, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.ReceivedPerUser, want.ReceivedPerUser) {
				t.Errorf("%v par %d: ReceivedPerUser diverged from legacy filter", mode, par)
			}
			if !reflect.DeepEqual(got.ForwardedPerUser, want.ForwardedPerUser) {
				t.Errorf("%v par %d: ForwardedPerUser diverged from legacy filter", mode, par)
			}
			if !reflect.DeepEqual(got.LinkUnits, want.LinkUnits) {
				t.Errorf("%v par %d: LinkUnits diverged from legacy filter", mode, par)
			}
			if got.ServerUnits != want.ServerUnits {
				t.Errorf("%v par %d: ServerUnits = %d, legacy %d", mode, par, got.ServerUnits, want.ServerUnits)
			}
			if !reflect.DeepEqual(got.Deliveries, want.Deliveries) {
				t.Errorf("%v par %d: delivery stream diverged from legacy filter", mode, par)
			}
		}
	}
}

// TestRekeyCompiledTraceByteIdentical: the flight-recorder stream of a
// session split by the compiled index is byte-for-byte the stream of the
// legacy filter — per-hop Items, EncsIn/Encs counts, spans, all of it.
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
	legacy := run(Filter)
	compiled := run(NewIndex(w.dir.Tree(), w.msg.Encryptions, 4).Split)
	if !bytes.Equal(legacy, compiled) {
		t.Fatal("trace stream of the compiled split differs from the legacy filter's")
	}
}

// TestRekeyOptionDefaults pins the zero-value defaulting of
// split.Options on every Rekey path: Mode 0 is PerEncryption (plain and
// parallel-compile paths alike), and PacketSize <= 0 is 25 in PerPacket
// mode.
func TestRekeyOptionDefaults(t *testing.T) {
	w := newWorld(t, 30, 4, 4, 17)
	reportKey := func(rep *Report) [2]any {
		return [2]any{rep.ReceivedPerUser, rep.ServerUnits}
	}
	want, err := Rekey(w.dir, w.msg, Options{Mode: PerEncryption})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"zero mode":          {},
		"zero mode parallel": {Parallelism: 8},
	} {
		got, err := Rekey(w.dir, w.msg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reportKey(got), reportKey(want)) {
			t.Errorf("%s: report differs from explicit PerEncryption", name)
		}
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

// TestIndexSplitAllocatesNothing is the hot-path gate: once a rekey's
// split decisions are compiled, every forwarding hop is a lookup that
// returns a shared slice, so Split over any subtree of the member tree
// — present in the message or not — must not allocate.
func TestIndexSplitAllocatesNothing(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 4}
	tree, encs := randSplitWorld(t, rand.New(rand.NewSource(7)), params, 120, 60)
	ix := NewIndex(tree, encs, 2)
	var subtrees []ident.Prefix
	tree.Walk(func(p ident.Prefix, _ int) bool {
		subtrees = append(subtrees, p)
		return true
	})
	sink, i := 0, 0
	allocs := testing.AllocsPerRun(4*len(subtrees), func() {
		sink += len(ix.Split(encs, subtrees[i%len(subtrees)]))
		i++
	})
	if allocs != 0 {
		t.Errorf("Index.Split allocates %.2f times per hop, want 0", allocs)
	}
	if sink == 0 {
		t.Error("every split came back empty: the index was not exercised")
	}
}

// TestRekeyHopPathAllocatesNothing is the session-level hop-path gate: a
// rekey session allocates per session (the split index, result maps,
// slabs), but not per hop. Two GT-ITM worlds of different size give two
// (hops, allocations) points with the index compile taken out; the slope
// between them is the cost of one more hop, and it must stay near zero.
func TestRekeyHopPathAllocatesNothing(t *testing.T) {
	params := ident.Params{Digits: 4, Base: 8}
	point := func(n int) (hops, allocs float64) {
		w := newWorldIn(t, params, n, n/10, n/10, 11)
		opts := Options{Mode: PerEncryption}
		rep, err := Rekey(w.dir, w.msg, opts) // also warms the SPT cache
		if err != nil {
			t.Fatal(err)
		}
		hops = float64(rep.Multicast.SenderStress)
		for _, u := range rep.Multicast.Users {
			hops += float64(u.Stress)
		}
		session := testing.AllocsPerRun(3, func() {
			if _, err := Rekey(w.dir, w.msg, opts); err != nil {
				t.Fatal(err)
			}
		})
		compile := testing.AllocsPerRun(3, func() { NewIndex(w.dir.Tree(), w.msg.Encryptions, 0) })
		return hops, session - compile
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
