// Command rekeysim regenerates the paper's evaluation figures and runs
// the repo's soaks.
//
// Usage:
//
//	rekeysim <command> [flags]
//
// The experiment commands are fig6..fig14 (the paper's figures),
// joincost (Sec. 3.1 message-cost analysis), ablation and packets
// (Sec. 2.5/2.6 design arguments), loss (footnote-1 unicast recovery),
// gnp (Sec. 5 centralized assignment), congestion (concurrent
// rekey+data on shared uplinks) and all. Each prints tab-separated
// series matching the corresponding figure of "Efficient Group Rekeying
// Using Application-Layer Multicast" (Zhang, Lam, Liu; ICDCS 2005).
// -scale shrinks group sizes and run counts proportionally for quick
// exploration; -scale 1 is the paper's full setting.
//
// The soak commands run an audited session instead and exit non-zero
// when any invariant is violated: soak (the deterministic chaos soak,
// internal/chaos), scale (the key-management scale soak), tenancy (the
// multi-group host, internal/grouphost) and daemon (rekeyd nodes over
// real sockets).
//
// Each command parses its own flags; `rekeysim <command> -h` lists
// them. An unknown command or flag is a usage error (exit 2).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"runtime"
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

// A command declares its flags on fs and returns the function that runs
// it once they are parsed; ops reports whether -pprof serves the ops
// plane, so a soak knows to run instrumented.
type command func(fs *flag.FlagSet) func(ops bool) int

// commands maps each command name to its runner; init adds one per
// experiment.
var commands = map[string]command{
	"all":     experimentCommand(experiments...),
	"soak":    soakCommand,
	"scale":   scaleCommand,
	"tenancy": tenancyCommand,
	"daemon":  daemonCommand,
}

func init() {
	for _, e := range experiments {
		commands[e.name] = experimentCommand(e)
	}
}

func run(args []string) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: rekeysim <command> [flags]   (rekeysim <command> -h lists its flags)")
		fmt.Fprint(os.Stderr, "experiments:")
		for _, e := range experiments {
			fmt.Fprint(os.Stderr, " ", e.name)
		}
		fmt.Fprintln(os.Stderr, " all\nsoaks: soak scale tenancy daemon")
		return 2
	}
	fs := flag.NewFlagSet("rekeysim "+args[0], flag.ContinueOnError)
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and the ops plane (/metrics, /healthz) on this address, e.g. localhost:6060")
	exec := commands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			return fail(err, 1)
		}
	}
	return exec(*pprofAddr != "")
}

// fail reports a fatal error on stderr and returns the exit code.
func fail(err error, code int) int {
	fmt.Fprintln(os.Stderr, "rekeysim:", err)
	return code
}

// activeObs holds the registry of the running soak so /metrics can
// serve it; nil-safe either way (a nil registry snapshots to the zero
// value).
var activeObs atomic.Pointer[obs.Registry]

var registerOpsOnce sync.Once

// metricsSource feeds /metrics from whichever registry is active *at
// scrape time*. The endpoint dereferences activeObs per request — never
// a captured registry — so a process that runs several soaks in
// sequence (tests, the tenancy replay) serves each one's live data
// instead of colliding on the first registry published.
func metricsSource() expose.Source {
	return expose.RegistrySource(func() *obs.Registry { return activeObs.Load() })
}

// registerOps mounts the ops plane on the default mux exactly once:
// Prometheus exposition on /metrics and liveness on /healthz (Handle
// panics on re-registration, hence the sync.Once across repeated run()
// calls).
func registerOps() {
	registerOpsOnce.Do(func() {
		http.Handle("/metrics", expose.Handler(metricsSource()))
		http.Handle("/healthz", expose.HealthzHandler())
	})
}

// startPprof serves net/http/pprof and the ops plane on addr using the
// default mux. The listener outlives run() — fine for a CLI process.
func startPprof(addr string) error {
	registerOps()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "# ops plane on http://%s/metrics, /healthz, /debug/pprof/\n", ln.Addr())
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

// daemonCommand drives the socket soak: rekeyd nodes exchanging wire
// frames over real transport endpoints, walking the chaos fault ladder
// with the five paper-invariant auditors.
func daemonCommand(fs *flag.FlagSet) func(ops bool) int {
	cfg := chaos.DefaultSocketConfig("loopback")
	fs.Func("transport", "`fabric`: loopback, udp, or tcp (default loopback)", func(s string) error {
		if s != "loopback" && s != "udp" && s != "tcp" {
			return fmt.Errorf("unknown transport %q (want loopback, udp, or tcp)", s)
		}
		cfg.Transport = s
		return nil
	})
	fs.StringVar(&cfg.Listen, "listen", cfg.Listen, "bind address for udp and tcp; every node binds its own port (default 127.0.0.1:0)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Members, "members", cfg.Members, "initial group size")
	fs.IntVar(&cfg.Intervals, "intervals", cfg.Intervals, "rekey intervals")
	return func(ops bool) int {
		if ops {
			cfg.Obs = obs.New()
			activeObs.Store(cfg.Obs)
		}
		rep, err := chaos.RunSocketSoak(cfg)
		if err != nil {
			return fail(err, 1)
		}
		fmt.Print(rep.String())
		if ops {
			printTransportSummary(cfg.Obs)
		}
		if rep.TotalViolations() > 0 {
			return 1
		}
		return 0
	}
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

// scaleCommand drives the key-management scale soak — the flat-state
// churn loop with no virtual network — and prints its canonical report
// on stdout. Progress lines (with live heap readings) go to stderr; the
// exit status reflects the keyring spot checks.
func scaleCommand(fs *flag.FlagSet) func(ops bool) int {
	def := chaos.DefaultScaleConfig(100000)
	seed := fs.Int64("seed", def.Seed, "random seed")
	n := fs.Int("n", def.N, "steady-state group size")
	churn := fs.Int("churn", 0, "members that leave and rejoin per interval (default 1% of -n)")
	intervals := fs.Int("intervals", def.Intervals, "churn intervals after the build-up")
	return func(bool) int {
		cfg := chaos.DefaultScaleConfig(*n) // the ID space and churn follow n
		cfg.Seed, cfg.Intervals, cfg.Out = *seed, *intervals, os.Stderr
		if *churn > 0 {
			cfg.Churn = *churn
		}
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
}

// tenancyCommand drives the multi-group tenancy soak
// (internal/grouphost): G groups — a flash crowd, a mass join+leave,
// and full-protocol groups over one shared topology — multiplexed
// under the staggered scheduler, with the five paper auditors running
// per group at every interval. After the main run the whole host
// replays at a different fan-out width (GOMAXPROCS 1) and the reports
// must be byte-identical; any mismatch, audit violation, or per-tenant
// SLO page exits non-zero. With -metrics-out the main run streams
// per-group "slo" records (plus a final registry snapshot) to the file;
// the report is byte-identical either way.
func tenancyCommand(fs *flag.FlagSet) func(ops bool) int {
	seed := fs.Int64("seed", 1, "base random seed")
	groups := fs.Int("groups", 16, "groups sharing one topology and the staggered scheduler")
	flashJoins := fs.Int("flash-joins", 100000, "the flash-crowd group's joins, all in one rekey interval")
	massChurn := fs.Int("mass-churn", 10000, "the mass group's join+leave quota per interval")
	intervals := fs.Int("intervals", 4, "churn intervals per group")
	metricsOut := fs.String("metrics-out", "", "write per-group slo records and a final registry snapshot to this JSONL file")
	return func(bool) int {
		specs := buildTenancy(*groups, *flashJoins, *massChurn, *intervals, *seed)
		run := func(out *os.File, reg *obs.Registry, sink *obs.Sink) (*grouphost.Report, int) {
			rep, err := grouphost.Run(grouphost.Config{
				Groups:  specs,
				Seed:    *seed,
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
		metrics, err := openSink("metrics", *metricsOut)
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

// soakCommand drives one simulator chaos soak session and prints its
// canonical report; the exit status reflects the invariant verdicts, so
// the soak can gate CI directly. With -metrics-out the soak runs
// instrumented and streams interval records (plus a final registry
// snapshot) to the file; the report itself is byte-identical either way.
func soakCommand(fs *flag.FlagSet) func(ops bool) int {
	cfg := chaos.DefaultConfig(1)
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Intervals, "intervals", cfg.Intervals, "rekey intervals")
	fs.IntVar(&cfg.InitialMembers, "members", cfg.InitialMembers, "initial group size")
	fs.Float64Var(&cfg.HopLoss, "loss", cfg.HopLoss, "per-hop loss probability of multicast hops and recovery unicasts")
	metricsOut := fs.String("metrics-out", "", "write one deterministic record per audited interval, plus a final registry snapshot, to this JSONL file")
	traceOut := fs.String("trace-out", "", "write the flight-recorder trace (causally-linked per-hop records of sampled intervals' multicasts) to this JSONL file")
	fs.IntVar(&cfg.TraceSample, "trace-sample", cfg.TraceSample, "with -trace-out, trace every k-th interval; <= 1 traces all")
	return func(ops bool) int {
		if *metricsOut != "" || ops {
			cfg.Obs = obs.New()
			activeObs.Store(cfg.Obs)
		}
		metrics, err := openSink("metrics", *metricsOut)
		if err != nil {
			return fail(err, 2)
		}
		trace, err := openSink("trace", *traceOut)
		if err != nil {
			return fail(err, 2)
		}
		cfg.Sink, cfg.TraceSink = metrics.Sink, trace.Sink

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
}

// experiments are the paper's figures and the repo's own analyses, in
// the order `all` runs them.
var experiments = []experiment{
	{"fig6", latencyFigure("Fig 6: rekey path latency, PlanetLab, 226 joins", exp.PlanetLab, 226, 100, false)},
	{"fig7", latencyFigure("Fig 7: rekey path latency, GT-ITM, 256 joins", exp.GTITM, 256, 5, false)},
	{"fig8", latencyFigure("Fig 8: rekey path latency, GT-ITM, 1024 joins", exp.GTITM, 1024, 3, false)},
	{"fig9", latencyFigure("Fig 9: data path latency, PlanetLab, 226 joins", exp.PlanetLab, 226, 100, true)},
	{"fig10", latencyFigure("Fig 10: data path latency, GT-ITM, 256 joins", exp.GTITM, 256, 5, true)},
	{"fig11", latencyFigure("Fig 11: data path latency, GT-ITM, 1024 joins", exp.GTITM, 1024, 3, true)},
	{"fig12", runner.fig12},
	{"fig13", runner.fig13},
	{"fig14", runner.fig14},
	{"joincost", runner.joinCost},
	{"ablation", runner.ablation},
	{"packets", runner.packets},
	{"loss", runner.loss},
	{"gnp", runner.gnp},
	{"congestion", runner.congestion},
}

// An experiment prints one figure's series on stdout.
type experiment struct {
	name string
	run  func(runner) error
}

// experimentCommand runs es in order; more than one (the all command)
// are separated by blank lines.
func experimentCommand(es ...experiment) command {
	return func(fs *flag.FlagSet) func(ops bool) int {
		r := runner{}
		fs.Int64Var(&r.seed, "seed", 1, "base random seed")
		fs.Float64Var(&r.scale, "scale", 1, "shrink factor: group sizes and runs are multiplied by this")
		fs.IntVar(&r.runsOverride, "runs", 0, "override the per-figure default number of runs")
		fs.IntVar(&r.points, "points", 20, "inverse-CDF points per curve")
		fs.BoolVar(&r.progress, "progress", false, "report per-run wall-clock times on stderr as runs complete")
		return func(bool) int {
			for _, e := range es {
				if err := e.run(r); err != nil {
					return fail(fmt.Errorf("%s: %w", e.name, err), 1)
				}
				if len(es) > 1 {
					fmt.Println()
				}
			}
			return 0
		}
	}
}

// latencyFigure is one of Figs 6–11: the latency experiment at the
// paper's group size and run count on topo, rekey or data path.
func latencyFigure(title string, topo exp.TopologyKind, joins, runs int, data bool) func(runner) error {
	return func(r runner) error {
		return r.latency(title, exp.LatencyConfig{Topology: topo, Joins: r.n(joins), Runs: r.runs(runs),
			Seed: r.seed, DataTransport: data, Points: r.points})
	}
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
