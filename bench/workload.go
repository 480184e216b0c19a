package main

import (
	"fmt"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keytree"
)

// config is one run of one workload. The harness owns every input: IDs,
// churn victims and world seeds all derive from seed.
type config struct {
	n         int   // members
	seed      int64 // feeds every generated input
	intervals int   // measured intervals
	setups    int   // timed set-ups; the last one's world is measured
}

// samples is what one closed-loop phase observed: one driver, the next
// interval starts when the previous one has fully completed.
type samples struct {
	setupS     []float64 // seconds per timed set-up
	intervalMS []float64 // wall time per measured interval
	rekeyMS    []float64 // Mark → last keyring, traced phases only
	encs       []float64 // rekey-message cost per interval, traced phases only
	expected   int64     // Σ members that had to end the interval keyed
	failed     int64     // Σ members that did not
	multicast  int64     // Σ members keyed by the multicast path
	allocs     uint64    // heap objects allocated inside the timed regions
	liveBytes  uint64    // HeapInuse+StackInuse with the world still live
	members    int
}

// endToEnd renders the end-to-end metrics every workload reports.
func (s *samples) endToEnd(m metricSet) {
	n := len(s.intervalMS)
	m.put("setup_s", "s", median(s.setupS), len(s.setupS))
	m.put("interval_ms_p50", "ms", median(s.intervalMS), n)
	m.put("interval_ms_p90", "ms", quantile(s.intervalMS, 0.9), n)
	m.put("members_per_s", "1/s", ratio(float64(s.expected), sum(s.intervalMS)/1000), n)
	m.put("mem_bytes_per_member", "B", ratio(float64(s.liveBytes), float64(s.members)), 1)
	m.put("allocs_per_member", "count", ratio(float64(s.allocs), float64(s.expected)), n)
}

// workload is one named set of inputs. A run measures a fixed number of
// intervals, perSecond for each second of --seconds: interval time on
// these planes grows with the churn a world has absorbed, so a run that
// stopped on the clock would measure different states on a faster
// machine or commit. perSecond is about what the reference box does, so
// a run lasts about --seconds there.
type workload struct {
	name      string
	n         int     // members at full size
	perSecond float64 // measured intervals per second of --seconds
	setups    int     // timed set-ups per end-to-end run, as many as the set-up's cost allows
	// untraced runs the workload through the repo's own entry point with
	// no tracer and no Obs registry.
	untraced func(c config) (*samples, error)
	// traced runs the harness-assembled equivalent with a span around
	// every call into a layer and fills the per-layer metrics it owns.
	traced func(c config, tr *tracer, m metricSet) (*samples, error)
}

var workloads = []workload{
	{name: "daemon_udp_256", n: 256, perSecond: 40, setups: 5,
		untraced: func(c config) (*samples, error) { return runDaemon(c, false) },
		traced: func(c config, tr *tracer, m metricSet) (*samples, error) {
			return runDaemonTraced(c, false, tr, m)
		}},
	{name: "daemon_udp_256_loss", n: 256, perSecond: 6, setups: 5,
		untraced: func(c config) (*samples, error) { return runDaemon(c, true) },
		traced: func(c config, tr *tracer, m metricSet) (*samples, error) {
			return runDaemonTraced(c, true, tr, m)
		}},
	{name: "keyplane_100k", n: 100000, perSecond: 2, setups: 5, untraced: runKeyplane, traced: runKeyplaneTraced},
	{name: "sim_4096", n: 4096, perSecond: 2.5, setups: 3,
		untraced: func(c config) (*samples, error) { return runSim(c, nil, nil) },
		traced:   func(c config, tr *tracer, m metricSet) (*samples, error) { return runSim(c, tr, m) }},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// outcome is one finished run.
type outcome struct {
	attempted, failed int64
	metrics           metricSet
	trace             *tracer // nil on an untraced run
}

// runUntraced is the end-to-end run: tracing off, Obs nil.
func runUntraced(w workload, c config) (outcome, error) {
	s, err := w.untraced(c)
	if err != nil {
		return outcome{}, err
	}
	m := metricSet{}
	s.endToEnd(m)
	return outcome{attempted: s.expected, failed: s.failed, metrics: m}, nil
}

// runTraced is the per-layer run: half the intervals go to an untraced
// baseline, half to the traced equivalent with the same seed, and the
// ratio of their medians is the tracing overhead.
func runTraced(w workload, c config) (outcome, error) {
	c.intervals = (c.intervals + 1) / 2
	c.setups = 1
	base, err := w.untraced(c)
	if err != nil {
		return outcome{}, err
	}
	m := metricSet{}
	for _, d := range perLayer {
		m.put(d.name, d.unit, 0, 0) // a layer that does no work on this plane reads 0
	}
	tr := newTracer(w.name)
	s, err := w.traced(c, tr, m)
	if err != nil {
		return outcome{}, err
	}
	spanMetrics(tr, s.expected, m)
	if err := probes(c, m); err != nil {
		return outcome{}, err
	}
	n := len(s.intervalMS)
	m.put("traced_interval_ms_p50", "ms", median(s.intervalMS), n)
	m.put("trace_overhead_ratio", "ratio", ratio(median(s.intervalMS), median(base.intervalMS)), n)
	m.put("failed_share", "ratio", ratio(float64(s.failed+base.failed), float64(s.expected+base.expected)), n)
	m.put("multicast_share", "ratio", ratio(float64(s.multicast), float64(s.expected)), n)
	m.put("rekey_ms_p50", "ms", median(s.rekeyMS), len(s.rekeyMS))
	m.put("encs_per_interval", "count", mean(s.encs), len(s.encs))

	self, total := tr.ledger()
	var layers time.Duration
	for layer, d := range self {
		m.put(layer+".self_ms", "ms", ratio(ms(d), float64(n)), n)
		if layer != "harness" {
			layers += d
		}
	}
	m.put("trace_self_share", "ratio", ratio(float64(layers), float64(total)), n)
	return outcome{attempted: s.expected + base.expected, failed: s.failed + base.failed, metrics: m, trace: tr}, nil
}

// joinKeyring is the join unicast every plane ends an admission with:
// the joiner's path keys from the regenerated tree, made into a keyring.
func joinKeyring(tr *tracer, tree *keytree.Tree, id ident.ID) (kr *keytree.Keyring, err error) {
	tr.call("keytree.pathkeys", func() {
		var path []keytree.PathKey
		if path, err = tree.PathKeys(id); err == nil {
			kr, err = keytree.NewKeyring(tree.Params(), id, path)
		}
	})
	return kr, err
}
