package exp

import (
	"fmt"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/metrics"
	"tmesh/internal/nice"
	"tmesh/internal/overlay"
	"tmesh/internal/split"
	"tmesh/internal/tmesh"
)

// CongestionConfig drives the concurrent rekey+data experiment — the
// paper's core motivation made measurable: "bursty rekey traffic
// competes for available bandwidth with data traffic, and thus
// considerably increases the load of bandwidth-limited links, such as
// the access links of users that are close to the root of the ALM tree."
type CongestionConfig struct {
	N           int
	ChurnLeaves int
	// UplinkBytesPerSecond is each user's access-link upstream capacity
	// (default 125000 ≈ 1 Mbit/s).
	UplinkBytesPerSecond float64
	// EncryptionBytes is the wire size of one encryption (default 80).
	EncryptionBytes int
	// DataFrameUnits is a data frame's size in the same units (default
	// 13 ≈ 1 KB at 80 B/unit).
	DataFrameUnits int
	// Frames is the number of data frames streamed across the burst
	// window (default 20) and FrameSpacing their period (default 100 ms).
	Frames       int
	FrameSpacing time.Duration
	Assign       assign.Config
	K            int
	Seed         int64
	// Progress, when non-nil, receives each scenario's index and
	// wall-clock duration as it completes.
	Progress Progress
}

// CongestionReport measures a data stream's delivery while a rekey
// burst shares the uplinks.
type CongestionReport struct {
	Scenario string // "no-rekey", "rekey-unsplit", "rekey-split"
	// DataDelayP50MS / P95 / Max aggregate per-user frame delays over
	// all frames of the stream.
	DataDelayP50MS, DataDelayP95MS, DataDelayMaxMS float64
	// WorstFrameP95MS is the 95th-percentile delay of the single most
	// affected frame — the one that raced the thick of the burst.
	WorstFrameP95MS float64
	// RekeyDurationMS is when the rekey burst finished (0 for the
	// baseline).
	RekeyDurationMS float64
}

// RunCongestion builds one churned group and delivers the same data
// frame three times — alone, racing an unsplit rekey burst, and racing a
// split rekey burst — each on fresh shared uplinks.
func RunCongestion(cfg CongestionConfig) ([]CongestionReport, error) {
	if cfg.UplinkBytesPerSecond == 0 {
		cfg.UplinkBytesPerSecond = 125000
	}
	if cfg.EncryptionBytes == 0 {
		cfg.EncryptionBytes = 80
	}
	if cfg.DataFrameUnits == 0 {
		cfg.DataFrameUnits = 13
	}
	if cfg.Frames == 0 {
		cfg.Frames = 20
	}
	if cfg.FrameSpacing == 0 {
		cfg.FrameSpacing = 100 * time.Millisecond
	}
	if cfg.ChurnLeaves == 0 {
		cfg.ChurnLeaves = cfg.N / 4
	}

	g, err := newChurnGroup(cfg.Assign, cfg.K, cfg.Seed, cfg.N, 0, "congestion")
	if err != nil {
		return nil, err
	}
	msg, err := g.churn(cfg.ChurnLeaves)
	if err != nil {
		return nil, err
	}
	dir, net, rng := g.dir, g.net, g.rng
	live := dir.IDs()
	sender := live[rng.Intn(len(live))]

	// A NICE overlay over the same live hosts for the baseline scenario.
	np, err := nice.New(net, nice.DefaultK)
	if err != nil {
		return nil, err
	}
	for _, id := range live {
		rec, _ := dir.Record(id)
		if err := np.Join(rec.Host); err != nil {
			return nil, err
		}
	}

	// Group construction is done; each scenario races the same burst on
	// its own fresh simulator and uplinks, so the scenarios themselves
	// run concurrently.
	scenarios := []string{"no-rekey", "rekey-unsplit", "rekey-split", "nice-unsplit"}
	out := make([]CongestionReport, len(scenarios))
	err = forEachUnit(len(scenarios), cfg.Progress, func(i int) error {
		var (
			rep *CongestionReport
			err error
		)
		if scenarios[i] == "nice-unsplit" {
			rep, err = runNICECongestion(cfg, dir, np, msg, sender)
		} else {
			rep, err = runCongestionScenario(cfg, dir, msg, sender, scenarios[i])
		}
		if err != nil {
			return fmt.Errorf("exp: scenario %s: %w", scenarios[i], err)
		}
		out[i] = *rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runNICECongestion races the same burst and data stream over the NICE
// baseline (protocol P0 style: the whole message travels unsplit through
// the root-heavy hierarchy). NICE's traversal reserves uplinks in
// delivery-tree order, a slight approximation compared to the
// event-ordered T-mesh scenarios; the burst dominates the timescale, so
// the comparison stands.
func runNICECongestion(cfg CongestionConfig, dir *overlay.Directory, np *nice.Protocol, msg *keytree.Message, sender ident.ID) (*CongestionReport, error) {
	uplinks, err := tmesh.NewUplinks(cfg.UplinkBytesPerSecond, cfg.EncryptionBytes, 40)
	if err != nil {
		return nil, err
	}
	rekeyRes, err := np.Multicast(0, nice.Options{
		FromServer: true,
		ServerHost: 0,
		Units:      msg.Cost(),
		Reserve:    uplinks.Reserve,
	})
	if err != nil {
		return nil, err
	}
	rec, ok := dir.Record(sender)
	if !ok {
		return nil, fmt.Errorf("sender %v missing", sender)
	}
	var all []float64
	worstFrameP95 := 0.0
	for f := 0; f < cfg.Frames; f++ {
		start := time.Millisecond + time.Duration(f)*cfg.FrameSpacing
		res, err := np.Multicast(rec.Host, nice.Options{
			Units:   cfg.DataFrameUnits,
			Reserve: uplinks.Reserve,
			StartAt: start,
		})
		if err != nil {
			return nil, err
		}
		var frameDelays []float64
		for h, st := range res.Members {
			if h == rec.Host {
				continue
			}
			if st.Received == 0 {
				return nil, fmt.Errorf("frame %d lost at host %d", f, h)
			}
			d := float64(st.Delay-start) / float64(time.Millisecond)
			frameDelays = append(frameDelays, d)
			all = append(all, d)
		}
		if p := metrics.NewDistribution(frameDelays).Percentile(95); p > worstFrameP95 {
			worstFrameP95 = p
		}
	}
	d := metrics.NewDistribution(all)
	return &CongestionReport{
		Scenario:        "nice-unsplit",
		DataDelayP50MS:  d.Percentile(50),
		DataDelayP95MS:  d.Percentile(95),
		DataDelayMaxMS:  d.Max(),
		WorstFrameP95MS: worstFrameP95,
		RekeyDurationMS: float64(rekeyRes.Duration) / float64(time.Millisecond),
	}, nil
}

func runCongestionScenario(cfg CongestionConfig, dir *overlay.Directory, msg *keytree.Message, sender ident.ID, scenario string) (*CongestionReport, error) {
	sim := eventsim.New()
	uplinks, err := tmesh.NewUplinks(cfg.UplinkBytesPerSecond, cfg.EncryptionBytes, 40)
	if err != nil {
		return nil, err
	}

	var rekeyRes *tmesh.Result
	if scenario != "no-rekey" {
		rcfg := tmesh.Config[[]keycrypt.Encryption]{
			Dir:     dir,
			Sim:     sim,
			Uplinks: uplinks,
			SizeOf:  func(encs []keycrypt.Encryption) int { return len(encs) },
		}
		if scenario == "rekey-split" {
			rcfg.SplitHop = split.NewIndex(dir.Tree(), msg.Encryptions, 1).Split
		}
		rekeyRes, err = tmesh.Multicast(rcfg, msg.Encryptions)
		if err != nil {
			return nil, err
		}
	}
	// A stream of data frames spans the burst window.
	frames := make([]*tmesh.Result, cfg.Frames)
	for f := 0; f < cfg.Frames; f++ {
		start := time.Millisecond + time.Duration(f)*cfg.FrameSpacing
		res, err := tmesh.Multicast(tmesh.Config[int]{
			Dir:      dir,
			SenderID: sender,
			Sim:      sim,
			Uplinks:  uplinks,
			StartAt:  start,
			SizeOf:   func(u int) int { return u },
		}, cfg.DataFrameUnits)
		if err != nil {
			return nil, err
		}
		frames[f] = res
	}
	sim.Run()

	var all []float64
	worstFrameP95 := 0.0
	for f, res := range frames {
		start := time.Millisecond + time.Duration(f)*cfg.FrameSpacing
		var frameDelays []float64
		for key, st := range res.Users {
			if key == sender.Key() {
				continue
			}
			if st.Received == 0 {
				return nil, fmt.Errorf("data frame %d lost at %v", f, ident.IDFromKey(key))
			}
			d := float64(st.Delay-start) / float64(time.Millisecond)
			frameDelays = append(frameDelays, d)
			all = append(all, d)
		}
		if p := metrics.NewDistribution(frameDelays).Percentile(95); p > worstFrameP95 {
			worstFrameP95 = p
		}
	}
	d := metrics.NewDistribution(all)
	rep := &CongestionReport{
		Scenario:        scenario,
		DataDelayP50MS:  d.Percentile(50),
		DataDelayP95MS:  d.Percentile(95),
		DataDelayMaxMS:  d.Max(),
		WorstFrameP95MS: worstFrameP95,
	}
	if rekeyRes != nil {
		rep.RekeyDurationMS = float64(rekeyRes.Duration) / float64(time.Millisecond)
	}
	return rep, nil
}
