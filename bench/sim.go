package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tmesh/internal/core"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
)

const (
	simChurn  = 16 // leaves and joins per interval
	simWarmup = 5
	simK      = 4
)

var simParams = ident.Params{Digits: 4, Base: 64}

// simTopology is a GT-ITM graph small enough to set up in seconds with
// thousands of multicast sources (the paper's 5000-router graph does
// not at 4096), with every shortest-path tree kept.
var simTopology = vnet.GTITMConfig{
	TransitDomains: 4, TransitPerDomain: 4, StubsPerTransit: 3,
	TotalRouters: 600, TotalLinks: 1600,
	AccessDelayMin: 500 * time.Microsecond, AccessDelayMax: 5 * time.Millisecond,
	SPTCacheCap: -1,
}

// simWorld is the paper's own plane assembled like benchDistributeWorld
// in the repo's bench_test.go: simulated topology, overlay directory,
// RealCrypto key tree, one keyring per member.
type simWorld struct {
	dir     *overlay.Directory
	tree    *keytree.Tree
	store   *memberstate.Store
	applier core.Applier
	rng     *rand.Rand
	par     int
	ids     []ident.ID
	used    map[string]bool
	hosts   map[string]vnet.HostID
	free    []vnet.HostID // hosts of departed members, reused by joiners
}

func newSimWorld(c config) (*simWorld, error) {
	net, err := vnet.NewGTITM(simTopology, c.n+1+simChurn, c.seed)
	if err != nil {
		return nil, err
	}
	dir, err := overlay.NewDirectory(simParams, simK, net, 0)
	if err != nil {
		return nil, err
	}
	tree, err := keytree.New(simParams, []byte(fmt.Sprintf("bench-sim-%d", c.seed)), keytree.Opts{RealCrypto: true})
	if err != nil {
		return nil, err
	}
	w := &simWorld{
		dir: dir, tree: tree, store: memberstate.NewStore(),
		rng:   rand.New(rand.NewSource(c.seed ^ 0x73696d)), // "sim"
		par:   runtime.GOMAXPROCS(0),
		used:  make(map[string]bool, c.n),
		hosts: make(map[string]vnet.HostID, c.n),
	}
	w.applier = core.NewApplier(w.store, w.par)
	for h := c.n + simChurn; h >= 1; h-- {
		w.free = append(w.free, vnet.HostID(h))
	}
	for len(w.ids) < c.n {
		id, err := w.join(nil)
		if err != nil {
			return nil, err
		}
		w.ids = append(w.ids, id)
	}
	if _, err := tree.Batch(w.ids, nil); err != nil {
		return nil, err
	}
	for _, id := range w.ids {
		if err := w.initKeyring(nil, id); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// join admits a member with a fresh random ID into the directory.
func (w *simWorld) join(tr *tracer) (ident.ID, error) {
	var id ident.ID
	for {
		var err error
		if id, err = ident.FromInt(simParams, w.rng.Intn(simParams.Capacity())); err != nil {
			return id, err
		}
		if !w.used[id.Key()] {
			break
		}
	}
	host := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.used[id.Key()], w.hosts[id.Key()] = true, host
	var err error
	tr.call("overlay.join", func() { err = w.dir.Join(overlay.Record{Host: host, ID: id}) })
	return id, err
}

func (w *simWorld) initKeyring(tr *tracer, id ident.ID) error {
	kr, err := joinKeyring(tr, w.tree, id)
	if err == nil {
		w.store.PutKeyring(id, kr)
	}
	return err
}

// simInterval is what one interval produced beyond its wall time.
type simInterval struct {
	rekey         time.Duration // Mark → last keyring applied
	msg           *keytree.Message
	rep           *split.Report
	multicast     time.Duration // the split.Rekey call (traced runs)
	multicastSpan int           // its span, parent of the compile probe's
}

// step is one interval: simChurn leaves and joins admitted into the
// overlay, then Mark → Regenerate → split.Rekey → Apply → joiner keys.
func (w *simWorld) step(tr *tracer) (out simInterval, err error) {
	leaves := make([]ident.ID, 0, simChurn)
	for len(leaves) < simChurn && len(w.ids) > 1 {
		i := w.rng.Intn(len(w.ids))
		id := w.ids[i]
		w.ids[i] = w.ids[len(w.ids)-1]
		w.ids = w.ids[:len(w.ids)-1]
		tr.call("overlay.leave", func() { err = w.dir.Leave(id) })
		if err != nil {
			return out, err
		}
		w.store.Remove(id)
		w.free = append(w.free, w.hosts[id.Key()])
		delete(w.used, id.Key())
		delete(w.hosts, id.Key())
		leaves = append(leaves, id)
	}
	joins := make([]ident.ID, 0, len(leaves))
	for range leaves {
		id, err := w.join(tr)
		if err != nil {
			return out, err
		}
		joins = append(joins, id)
	}

	start := time.Now()
	var plan *keytree.BatchPlan
	tr.call("keytree.mark", func() { plan, err = w.tree.Mark(joins, leaves) })
	if err != nil {
		return out, err
	}
	tr.callCounted("keytree.regen", func() { out.msg, err = w.tree.Regenerate(plan, w.par) })
	if err != nil {
		return out, err
	}
	out.multicast = tr.callCounted("tmesh.multicast", func() {
		out.multicastSpan = tr.current()
		out.rep, err = split.Rekey(w.dir, out.msg, split.Options{Mode: split.PerEncryption, Collect: true, Parallelism: w.par})
	})
	if err != nil {
		return out, err
	}
	tr.callCounted("core.apply", func() { err = w.applier.Apply(out.msg.Interval, out.rep.Deliveries) })
	if err != nil {
		return out, err
	}
	for _, id := range joins {
		if err := w.initKeyring(tr, id); err != nil {
			return out, err
		}
	}
	w.ids = append(w.ids, joins...)
	out.rekey = time.Since(start)
	return out, nil
}

// runSim measures the simulated plane; with a tracer it also probes,
// outside the timed interval, what split.Rekey does not show from the
// outside: the index compile it starts with and the per-hop lookup.
func runSim(c config, tr *tracer, m metricSet) (*samples, error) {
	s := &samples{members: c.n}
	var w *simWorld
	for i := 0; i < c.setups; i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = newSimWorld(c); err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
	}
	for i := 0; i < simWarmup; i++ {
		if _, err := w.step(nil); err != nil {
			return nil, err
		}
	}

	var hops, recvEncs, fwdEncs, compileAllocs float64
	var deliverMS, hopNS []float64
	for i := 0; i < c.intervals; i++ {
		tr.nextInterval()
		root := tr.begin("interval")
		a0, t0 := mallocs(), time.Now()
		iv, err := w.step(tr)
		dt, a1 := time.Since(t0), mallocs()
		tr.end(root)
		if err != nil {
			return nil, err
		}
		s.intervalMS = append(s.intervalMS, ms(dt))
		s.rekeyMS = append(s.rekeyMS, ms(iv.rekey))
		s.encs = append(s.encs, float64(iv.msg.Cost()))
		s.allocs += a1 - a0
		s.expected += int64(len(w.ids))
		s.failed += unkeyed(w.tree, w.store, w.ids)
		if tr == nil {
			continue
		}

		ca0, ct0 := mallocs(), time.Now()
		idx := split.NewIndex(w.dir.Tree(), iv.msg.Encryptions, w.par)
		compile := time.Since(ct0)
		compileAllocs += float64(mallocs() - ca0)
		tr.addEstimatedChild("split.compile", iv.multicastSpan, compile)
		deliverMS = append(deliverMS, ms(iv.multicast-compile))

		var subtrees []ident.Prefix
		w.dir.Tree().Walk(func(p ident.Prefix, _ int) bool {
			if p.Len() > 0 {
				subtrees = append(subtrees, p)
			}
			return true
		})
		ht0, sink := time.Now(), 0
		for _, p := range subtrees {
			sink += len(idx.Split(iv.msg.Encryptions, p))
		}
		hopNS = append(hopNS, ratio(float64(time.Since(ht0).Nanoseconds()), float64(len(subtrees))))
		_ = sink

		hops += float64(iv.rep.Multicast.SenderStress)
		for _, u := range iv.rep.Multicast.Users {
			hops += float64(u.Stress)
		}
		for _, n := range iv.rep.ReceivedPerUser {
			recvEncs += float64(n)
		}
		for _, n := range iv.rep.ForwardedPerUser {
			fwdEncs += float64(n)
		}
	}
	s.multicast = s.expected // no recovery path on this plane
	s.liveBytes = liveBytes()
	runtime.KeepAlive(w)
	if tr == nil {
		return s, nil
	}
	n := len(s.intervalMS)
	m.put("split.hop_ns", "ns", median(hopNS), n)
	m.put("split.recv_encs_per_member", "count", ratio(recvEncs, float64(s.expected)), n)
	m.put("split.fwd_encs_per_member", "count", ratio(fwdEncs, float64(s.expected)), n)
	m.put("tmesh.deliver_ms", "ms", median(deliverMS), n)
	m.put("tmesh.hops_per_interval", "count", ratio(hops, float64(n)), n)
	m.put("tmesh.allocs_per_hop", "count", ratio(float64(tr.allocs["tmesh.multicast"])-compileAllocs, hops), n)
	return s, nil
}
