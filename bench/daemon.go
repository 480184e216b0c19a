package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/rekeyd"
	"tmesh/internal/transport"
	"tmesh/internal/vnet"
	"tmesh/internal/wire"
)

const (
	daemonChurn  = 8  // leaves and joins per interval
	daemonWarmup = 20 // clean intervals before anything is measured
	daemonLoss   = 0.02
)

func daemonWorldConfig(c config, loss bool) rekeyd.WorldConfig {
	timeout := 500 * time.Millisecond
	if loss {
		timeout = 100 * time.Millisecond
	}
	return rekeyd.WorldConfig{
		Params:         ident.Params{Digits: 4, Base: 16},
		K:              3,
		Seed:           c.seed,
		InitialMembers: c.n,
		Transport:      "udp",
		Listen:         "127.0.0.1:0",
		Queue:          4096,
		HostBudget:     daemonChurn * (daemonWarmup + c.intervals + 1), // a joiner takes a fresh topology host
		Ladder:         rekeyd.Config{Timeout: timeout, RetryBase: 20 * time.Millisecond, RetryMax: 80 * time.Millisecond},
	}
}

// daemonChurnRNG draws the churn victims; both the untraced world and
// its traced equivalent take the same sequence from the seed.
func daemonChurnRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x636875726e)) } // "churn"

// daemonUnkeyed counts members that ended the interval without the
// server's current group key, dead-in-flight members included.
func daemonUnkeyed(tree *keytree.Tree, members []*rekeyd.Member, res *rekeyd.Result) int64 {
	want, ok := tree.GroupKey()
	bad := make(map[string]bool)
	for _, m := range members {
		if got, has := m.GroupKey(); !ok || !has || got != want {
			bad[m.ID().Key()] = true
		}
	}
	for _, id := range res.DeadInFlight {
		bad[id.Key()] = true
	}
	return int64(len(bad))
}

func (s *samples) addDaemonResult(res *rekeyd.Result, unkeyed int64) {
	s.expected += int64(res.Expected)
	s.failed += unkeyed
	for _, rung := range res.RungOf {
		if rung == recovery.ByMulticast {
			s.multicast++
		}
	}
}

// runDaemon drives rekeyd.NewWorld over UDP on 127.0.0.1: each interval
// schedules daemonChurn leaves and joins and calls World.Rekey, which
// returns once every member acked or ran its ladder dry.
func runDaemon(c config, loss bool) (*samples, error) {
	cfg := daemonWorldConfig(c, loss)
	s := &samples{members: c.n}
	var w *rekeyd.World
	for i := 0; i < c.setups; i++ {
		if w != nil {
			w.Close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = rekeyd.NewWorld(cfg); err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
	}
	defer w.Close()

	rng := daemonChurnRNG(c.seed)
	step := func(measured bool) error {
		members := w.Members()
		victims := rng.Perm(len(members))[:min(daemonChurn, len(members)-1)]
		a0, t0 := mallocs(), time.Now()
		for _, v := range victims {
			if err := w.Leave(members[v].ID()); err != nil {
				return err
			}
		}
		for range victims {
			if _, err := w.Join(); err != nil {
				return err
			}
		}
		res, err := w.Rekey()
		dt, a1 := time.Since(t0), mallocs()
		if err != nil {
			return err
		}
		if measured {
			s.intervalMS = append(s.intervalMS, ms(dt))
			s.allocs += a1 - a0
			s.addDaemonResult(res, daemonUnkeyed(w.Tree(), w.Members(), res))
		}
		return nil
	}
	for i := 0; i < daemonWarmup; i++ {
		if err := step(false); err != nil {
			return nil, err
		}
	}
	if loss {
		w.FaultPlan().SetLoss(daemonLoss)
	}
	for i := 0; i < c.intervals; i++ {
		if err := step(true); err != nil {
			return nil, err
		}
	}
	s.liveBytes = liveBytes()
	return s, nil
}

// --- traced equivalent, assembled from the daemon's public pieces ---

// netRecorder is the harness side of every endpoint: it stamps Send and
// handler entry, which is all the daemon's socket path shows from the
// outside.
type netRecorder struct {
	tr *tracer

	mu        sync.Mutex
	distStart time.Time
	pending   map[string]time.Time // last Send of a frame, by sender|receiver|header
	firstAck  time.Time
	lastAck   time.Time

	frames, bytes, sendErrs int64
	sendNS, addPeerNS       int64
	addPeers                int64
	onewayUS                []float64
	ackSpreadMS             []float64
	levelMS                 map[int][]float64 // Distribute start → rekey frame at forward level l
}

// frameKey identifies a frame on both sides of the socket: sender,
// receiver and the fixed header (type, forward level, interval).
func frameKey(from, to transport.PeerID, frame []byte) string {
	return string(from) + "|" + string(to) + "|" + string(frame[:min(len(frame), 10)])
}

func newNetRecorder(tr *tracer) *netRecorder {
	r := &netRecorder{tr: tr}
	r.reset()
	return r
}

// reset drops everything counted so far (the warm-up's share).
func (r *netRecorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.distStart, r.firstAck, r.lastAck = time.Time{}, time.Time{}, time.Time{}
	r.pending, r.levelMS = make(map[string]time.Time), make(map[int][]float64)
	r.frames, r.bytes, r.sendErrs, r.sendNS, r.addPeerNS, r.addPeers = 0, 0, 0, 0, 0, 0
	r.onewayUS, r.ackSpreadMS = nil, nil
}

func (r *netRecorder) beginDistribute() {
	r.mu.Lock()
	r.distStart = time.Now()
	r.pending = make(map[string]time.Time)
	r.firstAck, r.lastAck = time.Time{}, time.Time{}
	r.mu.Unlock()
}

func (r *netRecorder) endDistribute() {
	r.mu.Lock()
	if !r.firstAck.IsZero() {
		r.ackSpreadMS = append(r.ackSpreadMS, ms(r.lastAck.Sub(r.firstAck)))
	}
	r.mu.Unlock()
}

func (r *netRecorder) received(from, to transport.PeerID, frame []byte) {
	now := time.Now()
	if len(frame) == 0 {
		return
	}
	key := frameKey(from, to, frame)
	r.mu.Lock()
	if sent, ok := r.pending[key]; ok {
		r.onewayUS = append(r.onewayUS, us(now.Sub(sent)))
	}
	switch wire.MsgType(frame[0]) {
	case wire.TypeRekey:
		if len(frame) > 1 && !r.distStart.IsZero() {
			level := int(frame[1])
			r.levelMS[level] = append(r.levelMS[level], ms(now.Sub(r.distStart)))
		}
	case wire.TypeAck:
		if to == transport.ServerID {
			if r.firstAck.IsZero() {
				r.firstAck = now
			}
			r.lastAck = now
		}
	}
	r.mu.Unlock()
}

// tracedTransport wraps one endpoint (the fault wrapper included).
type tracedTransport struct {
	transport.Transport
	rec *netRecorder
}

func (t *tracedTransport) Send(to transport.PeerID, frame []byte) error {
	parent := t.rec.tr.current()
	start := time.Now()
	if len(frame) > 0 {
		t.rec.mu.Lock()
		t.rec.pending[frameKey(t.ID(), to, frame)] = start
		t.rec.mu.Unlock()
	}
	err := t.Transport.Send(to, frame)
	end := time.Now()
	t.rec.mu.Lock()
	t.rec.frames++
	t.rec.bytes += int64(len(frame))
	t.rec.sendNS += end.Sub(start).Nanoseconds()
	if err != nil {
		t.rec.sendErrs++
	}
	t.rec.mu.Unlock()
	if parent >= 0 {
		t.rec.tr.add("transport.send", start, end, parent, false)
	}
	return err
}

func (t *tracedTransport) SetHandler(h transport.Handler) {
	self := t.ID()
	t.Transport.SetHandler(func(from transport.PeerID, frame []byte) {
		t.rec.received(from, self, frame)
		h(from, frame)
	})
}

func (t *tracedTransport) AddPeer(id transport.PeerID, addr string) error {
	start := time.Now()
	err := t.Transport.AddPeer(id, addr)
	d := time.Since(start).Nanoseconds()
	t.rec.mu.Lock()
	t.rec.addPeerNS += d
	t.rec.addPeers++
	t.rec.mu.Unlock()
	return err
}

// daemonWorld is rekeyd.World rebuilt from public pieces so that every
// step of World.Rekey is a call the harness makes and can put a span
// around.
type daemonWorld struct {
	cfg  rekeyd.WorldConfig
	tr   *tracer
	rec  *netRecorder
	sh   *rekeyd.Shared
	tree *keytree.Tree
	plan *transport.FaultPlan

	srv     *rekeyd.Server
	srvTr   transport.Transport
	members map[string]*rekeyd.Member
	trs     map[string]transport.Transport
	addrs   map[string]string

	idRNG    *rand.Rand
	nextHost vnet.HostID
	joinSeq  int64
}

// daemonTopology is the small soak topology WorldConfig defaults to.
var daemonTopology = vnet.GTITMConfig{
	TransitDomains: 2, TransitPerDomain: 2, StubsPerTransit: 2,
	TotalRouters: 120, TotalLinks: 300,
	AccessDelayMin: time.Millisecond, AccessDelayMax: 3 * time.Millisecond,
}

func newDaemonWorld(cfg rekeyd.WorldConfig, tr *tracer) (*daemonWorld, error) {
	top, err := vnet.NewGTITM(daemonTopology, 1+cfg.InitialMembers+cfg.HostBudget, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dir, err := overlay.NewDirectory(cfg.Params, cfg.K, top, 0)
	if err != nil {
		return nil, err
	}
	tree, err := keytree.New(cfg.Params, []byte(fmt.Sprintf("bench-daemon-%d", cfg.Seed)), keytree.Opts{RealCrypto: true})
	if err != nil {
		return nil, err
	}
	w := &daemonWorld{
		cfg: cfg, tr: tr,
		rec:      newNetRecorder(tr),
		sh:       rekeyd.NewShared(dir),
		tree:     tree,
		plan:     transport.NewFaultPlan(cfg.Seed),
		members:  make(map[string]*rekeyd.Member),
		trs:      make(map[string]transport.Transport),
		addrs:    make(map[string]string),
		idRNG:    rand.New(rand.NewSource(cfg.Seed ^ 0x696473)),
		nextHost: 1,
	}
	w.sh.SetAlive(func(id ident.ID) bool { return !w.plan.Killed(rekeyd.PeerOf(id)) })
	if w.srvTr, err = w.newEndpoint(transport.ServerID); err != nil {
		return nil, err
	}
	cfg.Ladder.Params = cfg.Params
	if w.srv, err = rekeyd.NewServer(cfg.Ladder, w.srvTr, w.sh, tree); err != nil {
		w.srvTr.Close()
		return nil, err
	}
	w.addrs[string(transport.ServerID)] = w.srvTr.Addr()

	joins := make([]overlay.Record, 0, cfg.InitialMembers)
	for i := 0; i < cfg.InitialMembers; i++ {
		rec, err := w.newRecord(joins)
		if err != nil {
			w.close()
			return nil, err
		}
		joins = append(joins, rec)
	}
	if _, err := w.rekey(joins, nil); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *daemonWorld) newEndpoint(id transport.PeerID) (transport.Transport, error) {
	inner, err := transport.NewUDP(w.cfg.Listen, transport.Config{ID: id, Queue: w.cfg.Queue, Faults: w.plan})
	if err != nil {
		return nil, err
	}
	return &tracedTransport{Transport: transport.WithFaults(inner, w.plan, nil), rec: w.rec}, nil
}

// newRecord draws a free ID and the next fresh host for a joiner.
func (w *daemonWorld) newRecord(pending []overlay.Record) (overlay.Record, error) {
	capacity := w.cfg.Params.Capacity()
	for tries := 0; tries < 64*capacity; tries++ {
		id, err := ident.FromInt(w.cfg.Params, w.idRNG.Intn(capacity))
		if err != nil {
			return overlay.Record{}, err
		}
		_, taken := w.members[id.Key()]
		for _, rec := range pending {
			taken = taken || rec.ID.Equal(id)
		}
		if taken {
			continue
		}
		w.joinSeq++
		rec := overlay.Record{Host: w.nextHost, ID: id, JoinTime: time.Duration(w.joinSeq)}
		w.nextHost++
		return rec, nil
	}
	return overlay.Record{}, fmt.Errorf("ID space exhausted")
}

func (w *daemonWorld) sortedMembers() []*rekeyd.Member {
	out := make([]*rekeyd.Member, 0, len(w.members))
	for _, m := range w.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Compare(out[j].ID()) < 0 })
	return out
}

// addMember is the joiner bring-up: path keys from the regenerated
// tree, an endpoint, the member node, the full-mesh peer exchange.
func (w *daemonWorld) addMember(rec overlay.Record, interval uint64) error {
	span := w.tr.begin("rekeyd.bringup")
	defer w.tr.end(span)
	kr, err := joinKeyring(w.tr, w.tree, rec.ID)
	if err != nil {
		return err
	}
	peer := rekeyd.PeerOf(rec.ID)
	tr, err := w.newEndpoint(peer)
	if err != nil {
		return err
	}
	if err := tr.AddPeer(transport.ServerID, w.addrs[string(transport.ServerID)]); err != nil {
		tr.Close()
		return err
	}
	w.srvTr.AddPeer(peer, tr.Addr())
	for k, other := range w.trs {
		tr.AddPeer(transport.PeerID(k), w.addrs[k])
		other.AddPeer(peer, tr.Addr())
	}
	key := rec.ID.Key()
	w.addrs[key], w.trs[key] = tr.Addr(), tr
	w.members[key] = rekeyd.NewMember(rec.ID, w.cfg.Params, tr, w.sh, kr, interval, nil)
	return nil
}

func (w *daemonWorld) dropMember(id ident.ID) {
	key := id.Key()
	m, ok := w.members[key]
	if !ok {
		return
	}
	delete(w.members, key)
	delete(w.addrs, key)
	delete(w.trs, key)
	m.Close()
	w.srvTr.RemovePeer(rekeyd.PeerOf(id))
	for _, other := range w.trs {
		other.RemovePeer(rekeyd.PeerOf(id))
	}
}

// daemonInterval is the outcome of one daemonWorld.rekey.
type daemonInterval struct {
	res   *rekeyd.Result
	cost  int           // encryptions in the interval's message
	rekey time.Duration // Mark → Distribute return
}

// rekey is World.Rekey step by step: admit the churn into the
// directory, tear the leavers down, Mark, Regenerate, bring the joiners
// up, Distribute.
func (w *daemonWorld) rekey(joinRecs []overlay.Record, leaving []ident.ID) (*daemonInterval, error) {
	joins := make([]ident.ID, 0, len(joinRecs))
	leaves := make([]ident.ID, 0, len(leaving))
	var admitErr error
	w.sh.Write(func(dir *overlay.Directory) {
		for _, rec := range joinRecs {
			span := w.tr.begin("overlay.join")
			err := dir.Join(rec)
			w.tr.end(span)
			if err != nil {
				admitErr = err
				return
			}
			joins = append(joins, rec.ID)
		}
		for _, id := range leaving {
			span := w.tr.begin("overlay.leave")
			err := dir.Leave(id)
			w.tr.end(span)
			if err != nil {
				admitErr = err
				return
			}
			leaves = append(leaves, id)
		}
	})
	if admitErr != nil {
		return nil, admitErr
	}
	w.tr.call("rekeyd.teardown", func() {
		for _, id := range leaving {
			w.dropMember(id)
		}
	})

	sort.Slice(joins, func(i, j int) bool { return joins[i].Compare(joins[j]) < 0 })
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Compare(leaves[j]) < 0 })
	rekeyStart := time.Now()
	var plan *keytree.BatchPlan
	var msg *keytree.Message
	var err error
	w.tr.call("keytree.mark", func() { plan, err = w.tree.Mark(joins, leaves) })
	if err != nil {
		return nil, err
	}
	w.tr.callCounted("keytree.regen", func() { msg, err = w.tree.Regenerate(plan, 4) }) // WorldConfig's default RekeyParallelism
	if err != nil {
		return nil, err
	}
	for _, rec := range joinRecs {
		if err := w.addMember(rec, msg.Interval); err != nil {
			return nil, err
		}
	}
	expected := make([]ident.ID, 0, len(w.members))
	for _, m := range w.sortedMembers() {
		expected = append(expected, m.ID())
	}
	w.rec.beginDistribute()
	var res *rekeyd.Result
	w.tr.call("rekeyd.distribute", func() { res, err = w.srv.Distribute(msg, expected) })
	w.rec.endDistribute()
	if err != nil {
		return nil, err
	}
	return &daemonInterval{res: res, cost: msg.Cost(), rekey: time.Since(rekeyStart)}, nil
}

func (w *daemonWorld) close() {
	for _, m := range w.members {
		m.Close()
	}
	w.srv.Close()
}

// runDaemonTraced runs the daemon workload on a daemonWorld and fills
// the transport and rekeyd layer metrics from what the endpoint
// wrappers and the ladder results saw.
func runDaemonTraced(c config, loss bool, tr *tracer, m metricSet) (*samples, error) {
	cfg := daemonWorldConfig(c, loss)
	w, err := newDaemonWorld(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	s := &samples{members: c.n}
	rng := daemonChurnRNG(c.seed)

	var unicasts, resyncs, stragglers, dead int64
	step := func(measured bool) error {
		members := w.sortedMembers()
		victims := rng.Perm(len(members))[:min(daemonChurn, len(members)-1)]
		tr.nextInterval()
		root := tr.begin("interval")
		leaving := make([]ident.ID, 0, len(victims))
		joinRecs := make([]overlay.Record, 0, len(victims))
		for _, v := range victims {
			leaving = append(leaving, members[v].ID())
		}
		for range victims {
			rec, err := w.newRecord(joinRecs)
			if err != nil {
				return err
			}
			joinRecs = append(joinRecs, rec)
		}
		iv, err := w.rekey(joinRecs, leaving)
		dt := tr.end(root)
		if err != nil {
			return err
		}
		if res := iv.res; measured {
			s.intervalMS = append(s.intervalMS, ms(dt))
			s.rekeyMS = append(s.rekeyMS, ms(iv.rekey))
			s.encs = append(s.encs, float64(iv.cost))
			s.addDaemonResult(res, daemonUnkeyed(w.tree, w.sortedMembers(), res))
			unicasts += int64(res.UnicastAttempts)
			resyncs += int64(res.SyncAttempts)
			dead += int64(len(res.DeadInFlight))
			stragglers += int64(res.Expected - res.Rungs()[recovery.ByMulticast])
		}
		return nil
	}
	for i := 0; i < daemonWarmup; i++ {
		if err := step(false); err != nil {
			return nil, err
		}
	}
	if loss {
		w.plan.SetLoss(daemonLoss)
	}
	// The ledger and the recorder's counters cover the measured phase only.
	tr.reset()
	w.rec.reset()
	for i := 0; i < c.intervals; i++ {
		if err := step(true); err != nil {
			return nil, err
		}
	}

	n := len(s.intervalMS)
	r := w.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	m.put("transport.frames_per_interval", "count", ratio(float64(r.frames), float64(n)), n)
	m.put("transport.bytes_per_member", "B", ratio(float64(r.bytes), float64(s.expected)), n)
	m.put("transport.send_us", "us", ratio(float64(r.sendNS)/1e3, float64(r.frames)), int(r.frames))
	m.put("transport.oneway_us_p50", "us", median(r.onewayUS), len(r.onewayUS))
	m.put("transport.oneway_us_p99", "us", quantile(r.onewayUS, 0.99), len(r.onewayUS))
	m.put("transport.send_errors", "count", float64(r.sendErrs), int(r.frames))
	m.put("transport.addpeer_us", "us", ratio(float64(r.addPeerNS)/1e3, float64(r.addPeers)), int(r.addPeers))
	for l := 1; l <= cfg.Params.Digits; l++ {
		m.put("rekeyd.level_arrival_ms."+strconv.Itoa(l), "ms", median(r.levelMS[l]), len(r.levelMS[l]))
	}
	m.put("rekeyd.ack_spread_ms", "ms", median(r.ackSpreadMS), len(r.ackSpreadMS))
	m.put("rekeyd.unicasts_per_straggler", "count", ratio(float64(unicasts), float64(stragglers)), int(stragglers))
	m.put("rekeyd.resyncs_per_interval", "count", ratio(float64(resyncs), float64(n)), n)
	m.put("rekeyd.dead_in_flight", "count", float64(dead), n)
	return s, nil
}
