package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"tmesh/internal/chaos"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
)

const keyplaneWarmup = 5 // leading intervals of a soak that are not measured

// stampWriter is the ScaleConfig.Out sink: RunScaleSoak writes one line
// per interval, so the gaps between Write calls are the interval times.
// It also reads the allocation counter per line and, on the soak's last
// line (after taking the timestamp), the live heap.
type stampWriter struct {
	lines  int // lines the soak will write
	stamps []time.Time
	allocs []uint64
	live   uint64
}

func (w *stampWriter) Write(p []byte) (int, error) {
	w.stamps = append(w.stamps, time.Now())
	w.allocs = append(w.allocs, mallocs())
	if len(w.stamps) == w.lines {
		w.live = liveBytes()
	}
	return len(p), nil
}

// soakRun is one chaos.RunScaleSoak as the stampWriter saw it.
type soakRun struct {
	out    *stampWriter
	report *chaos.ScaleReport
	gapsMS []float64 // wall time per interval
	setupS float64   // build-up before the first interval
}

// soak runs one scale soak of the given number of intervals.
func soak(c config, intervals int) (*soakRun, error) {
	cfg := chaos.DefaultScaleConfig(c.n)
	cfg.Seed, cfg.Intervals, cfg.Verify = c.seed, intervals, 256
	r := &soakRun{out: &stampWriter{lines: intervals}}
	cfg.Out = r.out
	t0 := time.Now()
	var err error
	if r.report, err = chaos.RunScaleSoak(cfg); err != nil {
		return nil, err
	}
	if intervals == 0 {
		r.setupS = time.Since(t0).Seconds()
		return r, nil
	}
	stamps := r.out.stamps
	for i := 1; i < len(stamps); i++ {
		r.gapsMS = append(r.gapsMS, ms(stamps[i].Sub(stamps[i-1])))
	}
	// Time to the first line is build-up plus the first interval, which
	// is taken to cost what the later ones do.
	first := median(r.gapsMS)
	r.gapsMS = append([]float64{first}, r.gapsMS...)
	r.setupS = stamps[0].Sub(t0).Seconds() - first/1000
	return r, nil
}

// runKeyplane drives chaos.RunScaleSoak: key tree, AES-GCM wraps and
// keyring apply at full scale, no network layer. The set-ups before the
// measured soak are soaks of no intervals.
func runKeyplane(c config) (*samples, error) {
	s := &samples{members: c.n}
	for i := 0; i < c.setups-1; i++ {
		r, err := soak(c, 0)
		if err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, r.setupS)
		runtime.GC()
	}
	r, err := soak(c, keyplaneWarmup+c.intervals)
	if err != nil {
		return nil, err
	}
	s.setupS = append(s.setupS, r.setupS)
	s.intervalMS = r.gapsMS[keyplaneWarmup:]
	s.expected = int64(c.n) * int64(c.intervals)
	s.multicast = s.expected // no recovery path on this plane
	s.failed = int64(len(r.report.Violations))
	s.allocs = r.out.allocs[len(r.out.allocs)-1] - r.out.allocs[keyplaneWarmup-1]
	s.liveBytes = r.out.live
	return s, nil
}

// --- traced equivalent: the soak's interval loop, call by call ---

// keyplaneWorld mirrors the scale soak's world on public API: the
// server tree, every member's keyring, LIFO ID recycling.
type keyplaneWorld struct {
	params    ident.Params
	churn     int
	par       int
	tree      *keytree.Tree
	store     *memberstate.Store
	rng       *rand.Rand
	active    []ident.ID
	free      []ident.ID
	nextFresh int
	encIdx    map[string]int32
}

func newKeyplaneWorld(c config) (*keyplaneWorld, error) {
	cfg := chaos.DefaultScaleConfig(c.n)
	tree, err := keytree.New(cfg.Params, []byte(fmt.Sprintf("bench-keyplane-%d", c.seed)),
		keytree.Opts{RealCrypto: true, CapacityHint: c.n})
	if err != nil {
		return nil, err
	}
	w := &keyplaneWorld{
		params: cfg.Params, churn: cfg.Churn, par: cfg.Parallelism, tree: tree,
		store:     memberstate.NewStoreSized(c.n + cfg.Churn),
		rng:       rand.New(rand.NewSource(c.seed ^ 0x7363616c)), // "scal"
		active:    make([]ident.ID, c.n),
		nextFresh: c.n,
		encIdx:    make(map[string]int32, 1024),
	}
	for i := range w.active {
		if w.active[i], err = ident.FromInt(cfg.Params, i); err != nil {
			return nil, err
		}
	}
	plan, err := tree.Mark(w.active, nil)
	if err != nil {
		return nil, err
	}
	if _, err := tree.Regenerate(plan, w.par); err != nil {
		return nil, err
	}
	for _, id := range w.active {
		if err := w.initKeyring(nil, id); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *keyplaneWorld) initKeyring(tr *tracer, id ident.ID) error {
	kr, err := joinKeyring(tr, w.tree, id)
	if err == nil {
		w.store.PutKeyring(id, kr)
	}
	return err
}

// apply installs msg in every survivor's keyring the way the soak's
// applier does: index the encryptions by encrypting-key ID once, then
// hand each member only the encryptions on its own path.
func (w *keyplaneWorld) apply(msg *keytree.Message) error {
	clear(w.encIdx)
	full := false // duplicate encrypting IDs: every member scans the whole message
	for i, e := range msg.Encryptions {
		k := e.ID.Key()
		if _, dup := w.encIdx[k]; dup {
			full = true
			break
		}
		w.encIdx[k] = int32(i)
	}
	errs := make([]error, w.par)
	var wg sync.WaitGroup
	for p := 0; p < w.par; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mini := keytree.Message{Interval: msg.Interval}
			scratch := make([]keycrypt.Encryption, 0, w.params.Digits+1)
			for i := p; i < len(w.active) && errs[p] == nil; i += w.par {
				id := w.active[i]
				kr := w.store.Keyring(id)
				if kr == nil {
					errs[p] = fmt.Errorf("member %v has no keyring", id)
					return
				}
				if full {
					_, errs[p] = kr.Apply(msg)
					continue
				}
				scratch = scratch[:0]
				for l := 0; l <= w.params.Digits; l++ {
					if idx, ok := w.encIdx[id.Prefix(l).Key()]; ok {
						scratch = append(scratch, msg.Encryptions[idx])
					}
				}
				if len(scratch) > 0 {
					mini.Encryptions = scratch
					_, errs[p] = kr.Apply(&mini)
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// step is one churn interval; it returns the message cost and the time
// from Mark to the last keyring.
func (w *keyplaneWorld) step(tr *tracer) (cost int, rekey time.Duration, err error) {
	leaves := make([]ident.ID, 0, w.churn)
	for len(leaves) < w.churn {
		i := w.rng.Intn(len(w.active))
		leaves = append(leaves, w.active[i])
		w.active[i] = w.active[len(w.active)-1]
		w.active = w.active[:len(w.active)-1]
	}
	joins := make([]ident.ID, 0, w.churn)
	for len(joins) < w.churn {
		if n := len(w.free); n > 0 {
			joins = append(joins, w.free[n-1])
			w.free = w.free[:n-1]
			continue
		}
		id, ferr := ident.FromInt(w.params, w.nextFresh)
		if ferr != nil {
			return 0, 0, ferr
		}
		w.nextFresh++
		joins = append(joins, id)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Compare(leaves[j]) < 0 })
	sort.Slice(joins, func(i, j int) bool { return joins[i].Compare(joins[j]) < 0 })
	for _, id := range leaves {
		w.store.Remove(id)
	}

	start := time.Now()
	var plan *keytree.BatchPlan
	tr.call("keytree.mark", func() { plan, err = w.tree.Mark(joins, leaves) })
	if err != nil {
		return 0, 0, err
	}
	var msg *keytree.Message
	tr.callCounted("keytree.regen", func() { msg, err = w.tree.Regenerate(plan, w.par) })
	if err != nil {
		return 0, 0, err
	}
	tr.call("keytree.apply", func() { err = w.apply(msg) })
	if err != nil {
		return 0, 0, err
	}
	for _, id := range joins {
		if err := w.initKeyring(tr, id); err != nil {
			return 0, 0, err
		}
	}
	w.active = append(w.active, joins...)
	w.free = append(w.free, leaves...)
	return msg.Cost(), time.Since(start), nil
}

// unkeyed counts members whose keyring's group key is not the tree's.
func unkeyed(tree *keytree.Tree, store *memberstate.Store, members []ident.ID) int64 {
	want, ok := tree.GroupKey()
	var bad int64
	for _, id := range members {
		kr := store.Keyring(id)
		if kr == nil {
			bad++
			continue
		}
		if got, has := kr.GroupKey(); !ok || !has || got != want {
			bad++
		}
	}
	return bad
}

func runKeyplaneTraced(c config, tr *tracer, m metricSet) (*samples, error) {
	w, err := newKeyplaneWorld(c)
	if err != nil {
		return nil, err
	}
	s := &samples{members: c.n}
	for i := 0; i < keyplaneWarmup; i++ {
		if _, _, err := w.step(nil); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.intervals; i++ {
		tr.nextInterval()
		root := tr.begin("interval")
		cost, rekey, err := w.step(tr)
		dt := tr.end(root)
		if err != nil {
			return nil, err
		}
		s.intervalMS = append(s.intervalMS, ms(dt))
		s.rekeyMS = append(s.rekeyMS, ms(rekey))
		s.encs = append(s.encs, float64(cost))
		s.expected += int64(len(w.active))
		s.failed += unkeyed(w.tree, w.store, w.active)
	}
	s.multicast = s.expected
	apply := tr.durations("keytree.apply")
	perMember := make([]float64, len(apply))
	for i, d := range apply {
		perMember[i] = us(d) / float64(c.n)
	}
	m.put("keytree.apply_us_per_member", "us", median(perMember), len(perMember))
	return s, nil
}
