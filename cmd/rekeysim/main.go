// Command rekeysim regenerates the paper's evaluation figures.
//
// Usage:
//
//	rekeysim [flags] <experiment>
//
// Experiments: fig6..fig14 (the paper's figures), joincost (Sec. 3.1
// message-cost analysis), ablation and packets (Sec. 2.5/2.6 design
// arguments), loss (footnote-1 unicast recovery), gnp (Sec. 5
// centralized assignment), congestion (concurrent rekey+data on shared
// uplinks), all
//
// Each experiment prints tab-separated series matching the corresponding
// figure of "Efficient Group Rekeying Using Application-Layer Multicast"
// (Zhang, Lam, Liu; ICDCS 2005). The -scale flag shrinks group sizes and
// run counts proportionally for quick exploration; -scale 1 is the
// paper's full setting.
//
// The -soak flag instead runs the deterministic chaos soak
// (internal/chaos): an N-interval session under fault injection whose
// per-interval audits check the paper's invariants; the exit status is
// non-zero when any invariant is violated.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/chaos"
	"tmesh/internal/exp"
	"tmesh/internal/grouphost"
	"tmesh/internal/obs"
	"tmesh/internal/obs/expose"
	"tmesh/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rekeysim", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "base random seed")
		scale    = fs.Float64("scale", 1, "shrink factor: group sizes and runs are multiplied by this")
		runs     = fs.Int("runs", 0, "override the per-figure default number of runs")
		points   = fs.Int("points", 20, "inverse-CDF points per curve")
		progress = fs.Bool("progress", false, "report per-run wall-clock times on stderr as runs complete")

		soak          = fs.Bool("soak", false, "run the deterministic chaos soak (internal/chaos) instead of an experiment")
		soakIntervals = fs.Int("soak-intervals", 0, "override the soak's rekey interval count")
		soakMembers   = fs.Int("soak-members", 0, "override the soak's initial group size")
		soakLoss      = fs.Float64("soak-loss", -1, "override the soak's per-hop loss probability")
		soakN         = fs.Int("soak-n", 0, "run the key-management scale soak at this many members instead of the network soak (requires -soak)")
		soakChurn     = fs.Int("soak-churn", 0, "override the scale soak's per-interval leave/rejoin count (requires -soak-n)")

		soakGroups = fs.Int("groups", 0, "run the multi-group tenancy soak with this many groups sharing one topology and staggered scheduler (requires -soak)")
		flashJoins = fs.Int("flash-joins", 0, "override the tenancy soak's flash-crowd size: this many joins land in one rekey interval (requires -groups)")
		massChurn  = fs.Int("mass-churn", 0, "override the tenancy soak's mass join+leave quota per interval (requires -groups)")

		daemon          = fs.Bool("daemon", false, "run the socket daemon soak (internal/rekeyd nodes over internal/transport sockets) instead of an experiment")
		transportKind   = fs.String("transport", "loopback", "daemon fabric: loopback, udp, or tcp (requires -daemon)")
		listenAddr      = fs.String("listen", "", "bind address for -transport=udp|tcp, e.g. 127.0.0.1:0 — every node binds its own ephemeral port (requires -daemon)")
		daemonMembers   = fs.Int("daemon-members", 0, "override the daemon soak's initial group size (requires -daemon)")
		daemonIntervals = fs.Int("daemon-intervals", 0, "override the daemon soak's interval count (requires -daemon)")

		metricsOut  = fs.String("metrics-out", "", "write soak telemetry to this JSONL file: one deterministic record per audited interval plus a final registry snapshot (requires -soak)")
		traceOut    = fs.String("trace-out", "", "write the soak's flight-recorder trace to this JSONL file: causally-linked per-hop records of sampled intervals' multicasts (requires -soak)")
		traceSample = fs.Int("trace-sample", 1, "trace every k-th interval (with -trace-out); 1 traces all")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and expvar (including the live telemetry registry) on this address, e.g. localhost:6060")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: rekeysim [flags] <fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|joincost|ablation|packets|loss|gnp|congestion|all>\n")
		fmt.Fprintf(fs.Output(), "       rekeysim -soak [-seed N] [-soak-intervals N] [-soak-members N] [-soak-loss P] [-metrics-out FILE] [-trace-out FILE] [-trace-sample K] [-pprof ADDR]\n")
		fmt.Fprintf(fs.Output(), "       rekeysim -soak -soak-n N [-seed N] [-soak-churn N] [-soak-intervals N]\n")
		fmt.Fprintf(fs.Output(), "       rekeysim -soak -groups G [-seed N] [-flash-joins N] [-mass-churn N] [-soak-intervals N] [-metrics-out FILE]\n")
		fmt.Fprintf(fs.Output(), "       rekeysim -daemon [-transport loopback|udp|tcp] [-listen ADDR] [-seed N] [-daemon-members N] [-daemon-intervals N]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *daemon && *soak {
		fmt.Fprintln(os.Stderr, "rekeysim: -daemon and -soak are mutually exclusive")
		return 2
	}
	m := modeExperiment
	switch {
	case *daemon:
		m = modeDaemon
	case *soak && *soakGroups > 0:
		m = modeTenancy
	case *soak && *soakN > 0:
		m = modeScale
	case *soak:
		m = modeSoak
	}
	// Mode-specific flags fail fast outside their modes instead of being
	// silently ignored; fs.Visit only sees flags the command line
	// actually set, so defaults never trip the check.
	var misused []string
	fs.Visit(func(f *flag.Flag) {
		if modes, ok := flagModes[f.Name]; ok && !slices.Contains(modes, m) {
			misused = append(misused, "-"+f.Name)
		}
	})
	if len(misused) > 0 {
		fmt.Fprintf(os.Stderr, "rekeysim: %s do(es) not apply to %s\n", strings.Join(misused, ", "), modeNames[m])
		fs.Usage()
		return 2
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return fail(err, 1)
		}
	}
	if *daemon {
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		// The locator rules are transport facts, not preferences: sockets
		// cannot come up without somewhere to bind, and the in-process
		// fabrics have nothing to bind.
		switch *transportKind {
		case "loopback":
			if *listenAddr != "" {
				fmt.Fprintf(os.Stderr, "rekeysim: -listen is meaningless with -transport=loopback (udp and tcp bind sockets)\n")
				return 2
			}
		case "udp", "tcp":
			if *listenAddr == "" {
				fmt.Fprintf(os.Stderr, "rekeysim: -transport=%s requires -listen (try 127.0.0.1:0)\n", *transportKind)
				return 2
			}
		default:
			fmt.Fprintf(os.Stderr, "rekeysim: unknown transport %q (want loopback, udp, or tcp)\n", *transportKind)
			return 2
		}
		return runDaemon(*seed, *transportKind, *listenAddr, *daemonMembers, *daemonIntervals, *pprofAddr != "")
	}
	if *soak {
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		switch m {
		case modeTenancy:
			return runMultiGroupSoak(*seed, *soakGroups, *flashJoins, *massChurn, *soakIntervals, *metricsOut)
		case modeScale:
			return runScaleSoak(*seed, *soakN, *soakChurn, *soakIntervals)
		}
		return runSoak(*seed, *soakIntervals, *soakMembers, *soakLoss, *metricsOut, *traceOut, *traceSample, *pprofAddr != "")
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	r := runner{seed: *seed, scale: *scale, runsOverride: *runs, points: *points, progress: *progress}
	if err := r.dispatch(fs.Arg(0)); err != nil {
		return fail(err, 1)
	}
	return 0
}

// fail reports a fatal error on stderr and returns the exit code.
func fail(err error, code int) int {
	fmt.Fprintln(os.Stderr, "rekeysim:", err)
	return code
}

// mode is what one invocation runs; every mode-specific flag names the
// modes it applies to in flagModes.
type mode int

const (
	modeExperiment mode = iota
	modeSoak            // -soak: the simulator chaos soak
	modeScale           // -soak -soak-n: the key-management scale soak
	modeTenancy         // -soak -groups: the multi-group tenancy soak
	modeDaemon          // -daemon: the socket daemon soak
)

var modeNames = [...]string{
	modeExperiment: "an experiment run (soak flags require -soak, daemon flags -daemon)",
	modeSoak:       "the chaos soak (-soak; -soak-churn requires -soak-n, -flash-joins and -mass-churn require -groups)",
	modeScale:      "the scale soak (-soak-n), which has no virtual network",
	modeTenancy:    "the tenancy soak (-groups), which has no fault ladder, single network session or churn knob",
	modeDaemon:     "the daemon soak (-daemon)",
}

// flagModes lists, per mode-specific flag, the modes it has a meaning
// in. Flags absent from the table (-seed, -pprof, the experiment
// knobs) are accepted everywhere.
var flagModes = map[string][]mode{
	"soak-intervals":   {modeSoak, modeScale, modeTenancy},
	"soak-members":     {modeSoak},
	"soak-loss":        {modeSoak},
	"soak-n":           {modeScale},
	"soak-churn":       {modeScale},
	"groups":           {modeTenancy},
	"flash-joins":      {modeTenancy},
	"mass-churn":       {modeTenancy},
	"metrics-out":      {modeSoak, modeTenancy},
	"trace-out":        {modeSoak},
	"trace-sample":     {modeSoak},
	"transport":        {modeDaemon},
	"listen":           {modeDaemon},
	"daemon-members":   {modeDaemon},
	"daemon-intervals": {modeDaemon},
}

// activeObs holds the registry of the running soak so the expvar
// endpoint can snapshot it; nil-safe either way (a nil registry
// snapshots to the zero value).
var activeObs atomic.Pointer[obs.Registry]

var publishObsOnce sync.Once

// metricsSource feeds /metrics (and the expvar snapshot) from whichever
// registry is active *at scrape time*. Every endpoint dereferences
// activeObs per request — never a captured registry — so a process that
// runs several soaks in sequence (tests, the tenancy replay) serves each
// one's live data instead of colliding on the first registry published.
func metricsSource() expose.Source {
	return expose.RegistrySource(func() *obs.Registry { return activeObs.Load() })
}

// registerOps mounts the ops plane on the default mux exactly once:
// Prometheus exposition on /metrics, liveness on /healthz, and the raw
// registry snapshot as expvar "tmesh_obs" (both Publish and Handle panic
// on re-registration, hence the sync.Once across repeated run() calls).
func registerOps() {
	publishObsOnce.Do(func() {
		expvar.Publish("tmesh_obs", expvar.Func(func() any {
			return activeObs.Load().Snapshot()
		}))
		http.Handle("/metrics", expose.Handler(metricsSource()))
		http.Handle("/healthz", expose.HealthzHandler())
	})
}

// startPprof serves net/http/pprof, expvar, and the ops plane on addr
// using the default mux. The listener outlives run() — fine for a CLI
// process.
func startPprof(addr string) error {
	registerOps()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "# ops plane on http://%s/metrics, /healthz, /debug/pprof/, /debug/vars\n", ln.Addr())
	go http.Serve(ln, nil) //nolint:errcheck // best-effort debug endpoint
	return nil
}

// metricsEvent is the final -metrics-out record: the full registry
// snapshot. Unlike the per-interval records it carries wall-clock
// histograms, so it is nondeterministic by construction and must stay
// the stream's last, clearly-tagged line.
type metricsEvent struct {
	Kind     string       `json:"kind"` // always "metrics"
	Snapshot obs.Snapshot `json:"snapshot"`
}

// sinkFile is one JSONL stream a soak writes (-metrics-out,
// -trace-out): the file and the sink over it. The zero value is a
// stream that is off — its nil Sink swallows every Emit.
type sinkFile struct {
	what string // names the stream in error messages
	file *os.File
	*obs.Sink
}

// openSink creates path and wraps it; an empty path is the off stream.
func openSink(what, path string) (sinkFile, error) {
	if path == "" {
		return sinkFile{}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return sinkFile{}, err
	}
	return sinkFile{what: what, file: f, Sink: obs.NewSink(f)}, nil
}

// finish closes the stream and folds its health into the exit code: a
// record that could not be written, or a close that failed, turns a
// green soak red rather than silently dropping telemetry.
func (s sinkFile) finish(code int) int {
	if s.file == nil {
		return code
	}
	if err := s.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "rekeysim: %s sink: %v\n", s.what, err)
		code = 1
	}
	if err := s.file.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "rekeysim: %s file: %v\n", s.what, err)
		code = 1
	}
	return code
}

// runDaemon drives the socket soak: rekeyd nodes exchanging wire
// frames over real transport endpoints, walking the chaos fault ladder
// with the five paper-invariant auditors.
func runDaemon(seed int64, kind, listen string, members, intervals int, withObs bool) int {
	cfg := chaos.DefaultSocketConfig(kind)
	cfg.Seed = seed
	cfg.Listen = listen
	if members > 0 {
		cfg.Members = members
	}
	if intervals > 0 {
		cfg.Intervals = intervals
	}
	if withObs {
		cfg.Obs = obs.New()
		activeObs.Store(cfg.Obs)
	}
	rep, err := chaos.RunSocketSoak(cfg)
	if err != nil {
		return fail(err, 1)
	}
	fmt.Print(rep.String())
	if withObs {
		printTransportSummary(cfg.Obs)
	}
	if rep.TotalViolations() > 0 {
		return 1
	}
	return 0
}

// printTransportSummary dumps the transport_* instruments to stderr —
// the same live-state gauges and counters /metrics serves, for runs
// nobody scraped. Gauges read at end-of-soak (links torn down), so the
// interesting residue is the counters plus any gauge stuck non-zero.
func printTransportSummary(reg *obs.Registry) {
	snap := reg.Snapshot()
	fmt.Fprintf(os.Stderr, "transport instruments at shutdown:\n")
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "transport_") {
			fmt.Fprintf(os.Stderr, "  %s = %d\n", c.Name, c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if strings.HasPrefix(g.Name, "transport_") {
			fmt.Fprintf(os.Stderr, "  %s = %d (gauge)\n", g.Name, g.Value)
		}
	}
}

// runScaleSoak drives the key-management scale soak — the flat-state
// churn loop with no virtual network — and prints its canonical report
// on stdout. Progress lines (with live heap readings) go to stderr; the
// exit status reflects the keyring spot checks.
func runScaleSoak(seed int64, n, churn, intervals int) int {
	cfg := chaos.DefaultScaleConfig(n)
	cfg.Seed = seed
	if churn > 0 {
		cfg.Churn = churn
	}
	if intervals > 0 {
		cfg.Intervals = intervals
	}
	cfg.Out = os.Stderr
	rep, err := chaos.RunScaleSoak(cfg)
	if err != nil {
		return fail(err, 2)
	}
	fmt.Print(rep.String())
	fmt.Fprintf(os.Stderr, "scale soak heap: %d MB live, %.1f bytes/member\n",
		rep.HeapAllocEnd>>20, rep.BytesPerMember)
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

// runMultiGroupSoak drives the multi-group tenancy soak
// (internal/grouphost): G groups — a flash crowd, a mass join+leave,
// and full-protocol groups over one shared topology — multiplexed
// under the staggered scheduler, with the five paper auditors running
// per group at every interval. After the main run the whole host
// replays at a different fan-out width (GOMAXPROCS 1) and the reports
// must be byte-identical; any mismatch, audit violation, or per-tenant
// SLO page exits non-zero. With metricsOut the main run streams per-group "slo"
// records (plus a final registry snapshot) to the file; the report is
// byte-identical either way.
func runMultiGroupSoak(seed int64, groups, flashJoins, massChurn, intervals int, metricsOut string) int {
	if flashJoins <= 0 {
		flashJoins = 100000
	}
	if massChurn <= 0 {
		massChurn = 10000
	}
	if intervals <= 0 {
		intervals = 4
	}
	specs := buildTenancy(groups, flashJoins, massChurn, intervals, seed)
	run := func(out *os.File, reg *obs.Registry, sink *obs.Sink) (*grouphost.Report, int) {
		rep, err := grouphost.Run(grouphost.Config{
			Groups:  specs,
			Seed:    seed,
			Stagger: 7 * time.Second,
			Obs:     reg,
			Sink:    sink,
			Out:     out,
		})
		if err != nil {
			return nil, fail(err, 2)
		}
		return rep, 0
	}
	mainObs := obs.New()
	activeObs.Store(mainObs)
	metrics, err := openSink("metrics", metricsOut)
	if err != nil {
		return fail(err, 2)
	}
	rep, code := run(os.Stderr, mainObs, metrics.Sink)
	if code != 0 {
		return code
	}
	// Replay at a different width: inline against the parallel run, wide
	// against one that was already inline (a one-CPU box). Width is
	// GOMAXPROCS, so that is what the replay varies. The replay runs
	// with its own registry and no sink — the byte-compare below is what
	// proves the ops plane does not perturb the protocol.
	replayProcs := 1
	if rep.PoolWidth == 1 {
		replayProcs = 4
	}
	fmt.Fprintf(os.Stderr, "replaying at GOMAXPROCS %d to cross-check determinism\n", replayProcs)
	prevProcs := runtime.GOMAXPROCS(replayProcs)
	replay, code := run(nil, obs.New(), nil)
	runtime.GOMAXPROCS(prevProcs)
	if code != 0 {
		return code
	}
	fmt.Print(rep.String())
	if replay.String() != rep.String() {
		fmt.Fprintf(os.Stderr, "rekeysim: tenancy replay diverged across fan-out widths\n--- replay ---\n%s", replay.String())
		return 1
	}
	fmt.Fprintf(os.Stderr, "replay byte-identical across fan-out widths (%d vs %d wide)\n",
		rep.PoolWidth, replay.PoolWidth)
	code = 0
	if rep.Violations() > 0 {
		code = 1
	}
	if pages := rep.SLOPages(); pages > 0 {
		fmt.Fprintf(os.Stderr, "rekeysim: %d SLO page verdicts across tenants\n", pages)
		code = 1
	}
	metrics.Emit(metricsEvent{Kind: "metrics", Snapshot: mainObs.Snapshot()})
	return metrics.finish(code)
}

// buildTenancy lays out the soak's G groups: one flash crowd and one
// mass join+leave on the key plane, the rest full-protocol groups on
// the shared topology, every other one running Appendix B cluster
// rekeying. Workload seeds derive from the base seed and the group
// index, so each tenant churns independently but reproducibly.
func buildTenancy(groups, flashJoins, massChurn, intervals int, seed int64) []grouphost.GroupSpec {
	if groups < 1 {
		groups = 1
	}
	specs := make([]grouphost.GroupSpec, 0, groups)
	base := flashJoins / 20
	if base < 16 {
		base = 16
	}
	specs = append(specs, grouphost.GroupSpec{
		Name:     "flash",
		Profile:  grouphost.KeyPlane,
		Workload: workload.FlashCrowd(base, flashJoins, seed+1),
		Verify:   256,
	})
	if groups > 1 {
		specs = append(specs, grouphost.GroupSpec{
			Name:     "mass",
			Profile:  grouphost.KeyPlane,
			Workload: workload.MassJoinLeave(massChurn*intervals, massChurn, massChurn, intervals, seed+2),
			Verify:   256,
		})
	}
	for i := len(specs); i < groups; i++ {
		specs = append(specs, grouphost.GroupSpec{
			Name:            fmt.Sprintf("net%02d", i),
			ClusterRekeying: i%2 == 1,
			Workload: workload.Config{
				InitialJoins:   4*intervals + 16 + i, // leaves×intervals always fit
				WarmUp:         400 * time.Second,
				ChurnJoins:     5,
				ChurnLeaves:    4,
				Interval:       time.Duration(90+5*i) * time.Second,
				ChurnIntervals: intervals,
				Seed:           seed + int64(10*i),
			},
		})
	}
	return specs
}

// runSoak drives one simulator chaos soak session and prints its
// canonical report; the exit status reflects the invariant verdicts, so
// the soak can gate CI directly. With metricsOut the soak runs
// instrumented and streams interval records (plus a final registry
// snapshot) to the file; the report itself is byte-identical either way.
func runSoak(seed int64, intervals, members int, loss float64, metricsOut, traceOut string, traceSample int, withObs bool) int {
	cfg := chaos.DefaultConfig(seed)
	if intervals > 0 {
		cfg.Intervals = intervals
	}
	if members > 0 {
		cfg.InitialMembers = members
	}
	if loss >= 0 {
		cfg.HopLoss = loss
	}

	if metricsOut != "" || withObs {
		cfg.Obs = obs.New()
		activeObs.Store(cfg.Obs)
	}
	metrics, err := openSink("metrics", metricsOut)
	if err != nil {
		return fail(err, 2)
	}
	trace, err := openSink("trace", traceOut)
	if err != nil {
		return fail(err, 2)
	}
	cfg.Sink, cfg.TraceSink, cfg.TraceSample = metrics.Sink, trace.Sink, traceSample

	e, err := chaos.New(cfg)
	if err != nil {
		return fail(err, 2)
	}
	rep, err := e.Run()
	if err != nil {
		return fail(err, 1)
	}
	fmt.Print(rep.String())

	code := 0
	if rep.TotalViolations() > 0 {
		code = 1
	}
	metrics.Emit(metricsEvent{Kind: "metrics", Snapshot: cfg.Obs.Snapshot()})
	return trace.finish(metrics.finish(code))
}

type runner struct {
	seed         int64
	scale        float64
	runsOverride int
	points       int
	progress     bool
}

// progressFn reports per-run wall-clock on stderr (comment lines, so
// redirected tsv output stays clean) when -progress is set.
func (r runner) progressFn(label string) exp.Progress {
	if !r.progress {
		return nil
	}
	return func(unit int, elapsed time.Duration) {
		fmt.Fprintf(os.Stderr, "# %s: run %d done in %v\n", label, unit, elapsed.Round(time.Millisecond))
	}
}

func (r runner) n(full int) int {
	v := int(float64(full) * r.scale)
	if v < 4 {
		v = 4
	}
	return v
}

func (r runner) runs(def int) int {
	if r.runsOverride > 0 {
		return r.runsOverride
	}
	v := int(float64(def) * r.scale)
	if v < 1 {
		v = 1
	}
	return v
}

func (r runner) dispatch(name string) error {
	switch name {
	case "fig6":
		return r.latency("Fig 6: rekey path latency, PlanetLab, 226 joins",
			exp.LatencyConfig{Topology: exp.PlanetLab, Joins: r.n(226), Runs: r.runs(100), Seed: r.seed, Points: r.points})
	case "fig7":
		return r.latency("Fig 7: rekey path latency, GT-ITM, 256 joins",
			exp.LatencyConfig{Topology: exp.GTITM, Joins: r.n(256), Runs: r.runs(5), Seed: r.seed, Points: r.points})
	case "fig8":
		return r.latency("Fig 8: rekey path latency, GT-ITM, 1024 joins",
			exp.LatencyConfig{Topology: exp.GTITM, Joins: r.n(1024), Runs: r.runs(3), Seed: r.seed, Points: r.points})
	case "fig9":
		return r.latency("Fig 9: data path latency, PlanetLab, 226 joins",
			exp.LatencyConfig{Topology: exp.PlanetLab, Joins: r.n(226), Runs: r.runs(100), Seed: r.seed, DataTransport: true, Points: r.points})
	case "fig10":
		return r.latency("Fig 10: data path latency, GT-ITM, 256 joins",
			exp.LatencyConfig{Topology: exp.GTITM, Joins: r.n(256), Runs: r.runs(5), Seed: r.seed, DataTransport: true, Points: r.points})
	case "fig11":
		return r.latency("Fig 11: data path latency, GT-ITM, 1024 joins",
			exp.LatencyConfig{Topology: exp.GTITM, Joins: r.n(1024), Runs: r.runs(3), Seed: r.seed, DataTransport: true, Points: r.points})
	case "fig12":
		return r.fig12()
	case "fig13":
		return r.fig13()
	case "fig14":
		return r.fig14()
	case "joincost":
		return r.joinCost()
	case "ablation":
		return r.ablation()
	case "packets":
		return r.packets()
	case "loss":
		return r.loss()
	case "gnp":
		return r.gnp()
	case "congestion":
		return r.congestion()
	case "all":
		for _, f := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "joincost", "ablation", "packets", "loss", "gnp", "congestion"} {
			if err := r.dispatch(f); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func (r runner) latency(title string, cfg exp.LatencyConfig) error {
	fmt.Println("#", title)
	cfg.Progress = r.progressFn(title)
	res, err := exp.RunLatency(cfg)
	if err != nil {
		return err
	}
	printLatency(res)
	return nil
}

func printLatency(res *exp.LatencyResult) {
	for _, s := range res.Series {
		fmt.Printf("# %s\n", res.Headlines[s.Protocol])
	}
	fmt.Println("protocol\tfraction\tstress_mean\tstress_p95\tdelay_ms_mean\tdelay_ms_p95\trdp_mean\trdp_p95")
	for _, s := range res.Series {
		for i := range s.Stress {
			fmt.Printf("%s\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				s.Protocol, s.Stress[i].Fraction,
				s.Stress[i].Mean, s.Stress[i].P95,
				s.DelayMS[i].Mean, s.DelayMS[i].P95,
				s.RDP[i].Mean, s.RDP[i].P95)
		}
	}
}

func (r runner) fig12() error {
	n := r.n(1024)
	step := n / 4
	var grid []int
	for v := 0; v <= n; v += step {
		grid = append(grid, v)
	}
	fmt.Printf("# Fig 12: rekey cost vs (J, L), N=%d, modified / original / cluster-heuristic key trees\n", n)
	cells, err := exp.RunRekeyCost(exp.RekeyCostConfig{
		N: n, JValues: grid, LValues: grid, Runs: r.runs(20), Seed: r.seed,
		Progress: r.progressFn("fig12"),
	})
	if err != nil {
		return err
	}
	fmt.Println("J\tL\tmodified\toriginal\tclustered\tmod_minus_orig\tclus_minus_orig")
	for _, c := range cells {
		fmt.Printf("%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			c.J, c.L, c.Modified, c.Original, c.Clustered,
			c.Modified-c.Original, c.Clustered-c.Original)
	}
	return nil
}

func (r runner) fig13() error {
	n := r.n(1024)
	churn := n / 4
	fmt.Printf("# Fig 13: rekey bandwidth overhead, GT-ITM, N=%d + %d joins + %d leaves in one interval\n", n, churn, churn)
	reports, err := exp.RunBandwidth(exp.BandwidthConfig{
		N: n, ChurnJoins: churn, ChurnLeaves: churn, Seed: r.seed,
		Progress: r.progressFn("fig13"),
	})
	if err != nil {
		return err
	}
	fracs := []float64{0.50, 0.90, 0.96, 0.99, 1.00}
	header := []string{"protocol", "rekey_cost"}
	for _, f := range fracs {
		header = append(header,
			fmt.Sprintf("recv@%.2f", f),
			fmt.Sprintf("fwd@%.2f", f),
			fmt.Sprintf("link@%.2f", f))
	}
	fmt.Println(strings.Join(header, "\t"))
	for _, rep := range reports {
		row := []string{string(rep.Protocol), fmt.Sprintf("%d", rep.RekeyCost)}
		for _, f := range fracs {
			row = append(row,
				fmt.Sprintf("%.0f", rep.Received.AtFraction(f)),
				fmt.Sprintf("%.0f", rep.Forwarded.AtFraction(f)),
				fmt.Sprintf("%.0f", rep.PerLink.AtFraction(f)))
		}
		fmt.Println(strings.Join(row, "\t"))
	}
	return nil
}

func (r runner) fig14() error {
	joins := r.n(226)
	runs := r.runs(1)
	fmt.Printf("# Fig 14: T-mesh rekey latency vs delay thresholds, PlanetLab, %d joins\n", joins)
	out, err := exp.RunThresholdSweep(joins, runs, r.seed, nil)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("variant\tfraction\tdelay_ms_mean\trdp_mean")
	for _, name := range names {
		s := out[name].Series[0]
		for i := range s.DelayMS {
			fmt.Printf("%s\t%.3f\t%.2f\t%.2f\n", name, s.DelayMS[i].Fraction, s.DelayMS[i].Mean, s.RDP[i].Mean)
		}
	}
	return nil
}

func (r runner) ablation() error {
	n := r.n(512)
	churn := n / 4
	fmt.Printf("# Ablation (Sec 2.6): topology-aware vs scrambled host-to-ID mapping, N=%d, same key tree\n", n)
	reports, err := exp.RunIDAblation(exp.AblationConfig{
		N: n, ChurnJoins: churn, ChurnLeaves: churn, Seed: r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("policy\trekey_cost\trecv_mean\trecv_max\tlink_total\tlink_max\tmean_rdp\tdelay_p95_ms")
	for _, rep := range reports {
		fmt.Printf("%s\t%d\t%.1f\t%.0f\t%d\t%d\t%.2f\t%.1f\n",
			rep.Policy, rep.RekeyCost, rep.Received.Mean(), rep.Received.Max(),
			rep.LinkTotal, rep.LinkMax, rep.MeanRDP, rep.DelayP95MS)
	}
	return nil
}

func (r runner) packets() error {
	n := r.n(512)
	fmt.Printf("# Ablation (Sec 2.5): encryption-level vs packet-level splitting, N=%d, %d leaves\n", n, n/4)
	points, err := exp.RunPacketSweep(exp.AblationConfig{
		N: n, ChurnLeaves: n / 4, Seed: r.seed,
	}, []int{2, 5, 10, 25, 50, 100})
	if err != nil {
		return err
	}
	fmt.Println("packet_size\trecv_mean\trecv_max")
	for _, p := range points {
		label := fmt.Sprintf("%d", p.PacketSize)
		if p.PacketSize == 0 {
			label = "per-encryption"
		}
		fmt.Printf("%s\t%.1f\t%.0f\n", label, p.MeanReceived, p.MaxReceived)
	}
	return nil
}

func (r runner) loss() error {
	n := r.n(512)
	fmt.Printf("# Unicast recovery under multicast loss (footnote 1 / [31]), N=%d, %d leaves\n", n, n/8)
	points, err := exp.RunLossSweep(exp.AblationConfig{N: n, Seed: r.seed},
		[]float64{0, 0.01, 0.02, 0.05, 0.10, 0.20})
	if err != nil {
		return err
	}
	fmt.Println("loss_rate\trecovered_frac\tserver_units\tunits_per_recovered\thops_dropped")
	for _, p := range points {
		fmt.Printf("%.2f\t%.3f\t%d\t%.1f\t%d\n",
			p.LossRate, p.RecoveredFraction, p.ServerUnits, p.ServerUnitsPerRecovered, p.HopsDropped)
	}
	return nil
}

func (r runner) gnp() error {
	joins := r.n(226)
	fmt.Printf("# GNP centralized assignment vs distributed protocol (Sec 5), PlanetLab, %d joins\n", joins)
	reports, err := exp.RunGNPComparison(joins, r.seed, assign.Config{})
	if err != nil {
		return err
	}
	fmt.Println("strategy\tjoin_msgs_mean\tjoin_msgs_p95\tjoin_probes_mean\tmedian_rdp\tdelay_p95_ms")
	for _, rep := range reports {
		fmt.Printf("%s\t%.1f\t%.1f\t%.1f\t%.2f\t%.1f\n",
			rep.Strategy, rep.JoinMessages.Mean, rep.JoinMessages.P95,
			rep.JoinProbes.Mean, rep.MedianRDP, rep.P95DelayMS)
	}
	return nil
}

func (r runner) congestion() error {
	n := r.n(512)
	fmt.Printf("# Concurrent rekey + data transport on 320 kbit/s uplinks, N=%d, %d leaves in the burst\n", n, n/4)
	reports, err := exp.RunCongestion(exp.CongestionConfig{
		N:                    n,
		ChurnLeaves:          n / 4,
		UplinkBytesPerSecond: 40000,
		DataFrameUnits:       2,
		Frames:               15,
		FrameSpacing:         250 * time.Millisecond,
		Seed:                 r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println("scenario\tdata_p50_ms\tdata_p95_ms\tworst_frame_p95_ms\tdata_max_ms\trekey_done_ms")
	for _, rep := range reports {
		fmt.Printf("%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			rep.Scenario, rep.DataDelayP50MS, rep.DataDelayP95MS,
			rep.WorstFrameP95MS, rep.DataDelayMaxMS, rep.RekeyDurationMS)
	}
	return nil
}

func (r runner) joinCost() error {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	var scaled []int
	for _, s := range sizes {
		v := r.n(s)
		if len(scaled) == 0 || v > scaled[len(scaled)-1] {
			scaled = append(scaled, v)
		}
	}
	fmt.Println("# Join cost: messages exchanged per join vs group size (Sec 3.1: O(P*D*N^(1/D)))")
	points, err := exp.RunJoinCost(exp.JoinCostConfig{GroupSizes: scaled, Samples: 8, Seed: r.seed})
	if err != nil {
		return err
	}
	fmt.Println("N\tmessages_mean\tmessages_p95\tqueries_mean\tprobes_mean\tlatency_ms_mean\tlatency_ms_p95")
	for _, p := range points {
		fmt.Printf("%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			p.N, p.Messages.Mean, p.Messages.P95, p.Queries.Mean, p.Probes.Mean,
			p.LatencyMS.Mean, p.LatencyMS.P95)
	}
	return nil
}
