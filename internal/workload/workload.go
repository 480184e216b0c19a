// Package workload generates the join/leave schedules used by the
// evaluation: N initial joins at uniformly random times over a warm-up
// window, followed by J joins and L leaves spread uniformly over one or
// more rekey intervals — the paper's Fig. 13 scenario ("1024 users join
// the group each at a random time between 0 and 2048 seconds; after all
// the joins terminate, the key server processes 256 joins and 256
// leaves in one rekey interval of 512 seconds") — plus the tenancy
// scenarios the paper never tested: flash-crowd joins (pay-per-view)
// and the CKCS-style simultaneous mass join+leave interval.
//
// A Schedule is every driver's membership input: core.Session and the
// tenancy host replay Generate's output, and the chaos and socket soaks
// generate their own, record the events they executed and replay a
// recording. A Cursor batches a schedule into rekey intervals, and the
// text form (String, ParseSchedule) carries a schedule between runs;
// testdata holds the committed corner cases.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// EventKind distinguishes joins, leaves and crashes.
type EventKind int

const (
	// Join is a user arrival. A Join of a host that departed earlier is a
	// rejoin: planes that derive the ID from the host reuse it under a
	// fresh key epoch, planes that assign IDs assign afresh.
	Join EventKind = iota + 1
	// Leave is a graceful departure of a current member.
	Leave
	// Crash is a member going silent without leaving: planes with a
	// failure model detect and evict it, the key plane treats it as a
	// leave, and core.Session rejects it.
	Crash
)

var kindNames = [...]string{Join: "join", Leave: "leave", Crash: "crash"}

func (k EventKind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one membership change, naming its user by schedule host
// index.
type Event struct {
	Kind EventKind
	At   time.Duration
	// Host, for joins, is the joining host.
	Host int
	// Victim, for leaves and crashes, is the Host of the departing user.
	Victim int
	// Burst and Leader record which fault draw produced a crash — one of
	// a correlated burst, aimed at a cluster leader — so that a replay
	// reports what the recorded run did. Planes without bursts or
	// clusters ignore them.
	Burst, Leader bool
}

// Subject returns the host the event is about: the joiner or the
// departing victim.
func (e Event) Subject() int {
	if e.Kind == Join {
		return e.Host
	}
	return e.Victim
}

// Schedule is a time-ordered sequence of events.
type Schedule struct {
	Events []Event
	// Hosts is the total number of distinct hosts referenced.
	Hosts int
}

// NewSchedule wraps time-ordered events, sizing Hosts to one past the
// largest host they name.
func NewSchedule(events []Event) *Schedule {
	s := &Schedule{Events: events}
	for _, ev := range events {
		s.Hosts = max(s.Hosts, ev.Subject()+1)
	}
	return s
}

// Cursor walks a schedule boundary by boundary (see Next).
type Cursor struct {
	s    *Schedule
	next int // first event not yet returned
}

// Cursor returns a cursor before the schedule's first event.
func (s *Schedule) Cursor() *Cursor { return &Cursor{s: s} }

// Next returns, in order, the events not returned yet that lie strictly
// before boundary: an event exactly on a boundary belongs to the
// interval after it. Every driver that batches a schedule into rekey
// intervals walks it through this one rule.
func (c *Cursor) Next(boundary time.Duration) []Event {
	rest := c.s.Events[c.next:]
	n := sort.Search(len(rest), func(i int) bool { return rest[i].At >= boundary })
	c.next += n
	return rest[:n:n]
}

// Done reports whether every event has been returned.
func (c *Cursor) Done() bool { return c.next == len(c.s.Events) }

// maxHost bounds the host indexes a schedule text may name.
const maxHost = 1 << 24

// String renders the schedule one event per line, as
// "<at> <kind> <host>" with a crash's "burst" and "leader" marks
// appended; ParseSchedule reads it back. Victims must be resolved.
func (s *Schedule) String() string {
	var b strings.Builder
	for _, ev := range s.Events {
		fmt.Fprintf(&b, "%v %v %d", ev.At, ev.Kind, ev.Subject())
		if ev.Burst {
			b.WriteString(" burst")
		}
		if ev.Leader {
			b.WriteString(" leader")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseSchedule reads the text form String writes. Blank lines and
// lines starting with '#' are skipped; times are Go durations and must
// not decrease.
func ParseSchedule(text string) (*Schedule, error) {
	var events []Event
	for n, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		ev, err := parseEvent(f)
		if err == nil && len(events) > 0 && ev.At < events[len(events)-1].At {
			err = fmt.Errorf("time %v before the previous event's", ev.At)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", n+1, err)
		}
		events = append(events, ev)
	}
	return NewSchedule(events), nil
}

func parseEvent(f []string) (Event, error) {
	var ev Event
	if len(f) < 3 {
		return ev, fmt.Errorf("want <at> <kind> <host>, got %q", strings.Join(f, " "))
	}
	at, err := time.ParseDuration(f[0])
	if err != nil || at < 0 {
		return ev, fmt.Errorf("bad time %q", f[0])
	}
	ev.At = at
	kind := slices.Index(kindNames[:], f[1])
	if kind <= 0 {
		return ev, fmt.Errorf("unknown event kind %q", f[1])
	}
	ev.Kind = EventKind(kind)
	host, err := strconv.Atoi(f[2])
	if err != nil || host < 0 || host >= maxHost {
		return ev, fmt.Errorf("bad host %q", f[2])
	}
	if ev.Kind == Join {
		ev.Host = host
	} else {
		ev.Victim = host
	}
	for _, mark := range f[3:] {
		switch {
		case ev.Kind == Crash && mark == "burst" && !ev.Burst:
			ev.Burst = true
		case ev.Kind == Crash && mark == "leader" && !ev.Leader:
			ev.Leader = true
		default:
			return ev, fmt.Errorf("unexpected %q after %s %d", mark, f[1], host)
		}
	}
	return ev, nil
}

// Config describes a schedule.
type Config struct {
	// InitialJoins users arrive at U(0, WarmUp).
	InitialJoins int
	WarmUp       time.Duration
	// ChurnJoins and ChurnLeaves are processed during each churn
	// interval, starting at WarmUp and each lasting Interval. Leaves
	// pick distinct victims among the initial joiners (so every victim
	// is a member before the churn starts, and no victim is drawn
	// twice across the whole schedule).
	ChurnJoins, ChurnLeaves int
	Interval                time.Duration
	// ChurnIntervals is how many consecutive churn intervals to
	// generate; 0 (and 1) mean the classic single interval and produce
	// identical streams. ChurnLeaves×ChurnIntervals must not exceed
	// InitialJoins.
	ChurnIntervals int
	Seed           int64
}

// Paper13 returns the Fig. 13 workload.
func Paper13(seed int64) Config {
	return Config{
		InitialJoins: 1024,
		WarmUp:       2048 * time.Second,
		ChurnJoins:   256,
		ChurnLeaves:  256,
		Interval:     512 * time.Second,
		Seed:         seed,
	}
}

// FlashCrowd returns the pay-per-view scenario (`examples/payperview`
// is the seed): base subscribers trickle in over the warm-up window,
// then the broadcast starts and `crowd` viewers all join inside one
// rekey interval. No leaves — nobody walks out at kickoff.
func FlashCrowd(base, crowd int, seed int64) Config {
	return Config{
		InitialJoins: base,
		WarmUp:       1024 * time.Second,
		ChurnJoins:   crowd,
		Interval:     512 * time.Second,
		Seed:         seed,
	}
}

// MassJoinLeave returns the CKCS-style mass-change scenario (see
// PAPERS.md, "Efficient Group Key Management Schemes for Multicast
// Dynamic Communication Systems"): from a base membership, `joins`
// arrivals and `leaves` departures land in the same rekey interval —
// the simultaneous-bulk case batch rekeying is claimed to win. Spread
// over `intervals` consecutive intervals when > 1 (each interval gets
// the full joins/leaves quota; leaves×intervals must fit in base).
func MassJoinLeave(base, joins, leaves, intervals int, seed int64) Config {
	return Config{
		InitialJoins:   base,
		WarmUp:         1024 * time.Second,
		ChurnJoins:     joins,
		ChurnLeaves:    leaves,
		Interval:       512 * time.Second,
		ChurnIntervals: intervals,
		Seed:           seed,
	}
}

// Generate builds the schedule.
//
// Events are ordered by time with an explicit deterministic tie-break:
// equal-instant events order by (At, Kind [joins before leaves], Host,
// Victim). The comparator is a strict total order over the schedule
// (join Hosts and leave Victims are unique), so the output is
// independent of emission order — collision-heavy schedules (flash
// crowds land many events on one instant) do not silently depend on
// sort stability.
//
// Stream-compatibility note: victims are drawn with a partial
// Fisher–Yates that consumes only ChurnLeaves draws and O(ChurnLeaves)
// memory, instead of materialising a full rng.Perm(InitialJoins). The
// seed→schedule mapping therefore changed when this landed (and golden
// tests pin the current mapping); at flash-crowd scale the old full
// permutation was O(N) memory for a handful of victims.
func Generate(cfg Config) (*Schedule, error) {
	churnIntervals := cfg.ChurnIntervals
	if churnIntervals <= 0 {
		churnIntervals = 1
	}
	if cfg.InitialJoins < 0 || cfg.ChurnJoins < 0 || cfg.ChurnLeaves < 0 {
		return nil, fmt.Errorf("workload: negative counts in %+v", cfg)
	}
	if cfg.ChurnLeaves*churnIntervals > cfg.InitialJoins {
		return nil, fmt.Errorf("workload: %d leaves over %d interval(s) exceed %d initial joins",
			cfg.ChurnLeaves, churnIntervals, cfg.InitialJoins)
	}
	if cfg.InitialJoins > 0 && cfg.WarmUp <= 0 {
		return nil, fmt.Errorf("workload: warm-up window must be positive")
	}
	if cfg.ChurnJoins+cfg.ChurnLeaves > 0 && cfg.Interval <= 0 {
		return nil, fmt.Errorf("workload: rekey interval must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	s := &Schedule{}
	s.Events = make([]Event, 0, cfg.InitialJoins+(cfg.ChurnJoins+cfg.ChurnLeaves)*churnIntervals)
	host := 0
	for i := 0; i < cfg.InitialJoins; i++ {
		s.Events = append(s.Events, Event{
			Kind: Join,
			At:   time.Duration(rng.Int63n(int64(cfg.WarmUp))),
			Host: host,
		})
		host++
	}
	// Churn joins, interval by interval.
	for t := 0; t < churnIntervals; t++ {
		start := cfg.WarmUp + time.Duration(t)*cfg.Interval
		for i := 0; i < cfg.ChurnJoins; i++ {
			s.Events = append(s.Events, Event{
				Kind: Join,
				At:   start + time.Duration(rng.Int63n(int64(cfg.Interval))),
				Host: host,
			})
			host++
		}
	}
	// Churn leaves: distinct victims among initial joiners (so a victim
	// is guaranteed to have joined before the churn starts), drawn once
	// for the whole schedule and consumed interval by interval.
	victims := partialPerm(rng, cfg.InitialJoins, cfg.ChurnLeaves*churnIntervals)
	for t := 0; t < churnIntervals; t++ {
		start := cfg.WarmUp + time.Duration(t)*cfg.Interval
		for _, v := range victims[t*cfg.ChurnLeaves : (t+1)*cfg.ChurnLeaves] {
			s.Events = append(s.Events, Event{
				Kind:   Leave,
				At:     start + time.Duration(rng.Int63n(int64(cfg.Interval))),
				Victim: v,
			})
		}
	}
	sort.Slice(s.Events, func(i, j int) bool { return less(s.Events[i], s.Events[j]) })
	s.Hosts = host
	return s, nil
}

// less is the schedule's explicit total order: time, then kind (joins
// before leaves at the same instant — a rejoining pattern never sees a
// same-tick leave reorder ahead of an arrival), then the unique
// per-kind key.
func less(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Host != b.Host {
		return a.Host < b.Host
	}
	return a.Victim < b.Victim
}

// partialPerm draws k distinct values from [0, n) — the first k entries
// of a Fisher–Yates shuffle — in O(k) time and memory. The sparse
// displacement map stands in for the array: disp[i] holds the value
// that a full shuffle would have swapped into slot i.
func partialPerm(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	disp := make(map[int]int, k)
	val := func(i int) int {
		if v, ok := disp[i]; ok {
			return v
		}
		return i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		out[i] = val(j)
		disp[j] = val(i)
		delete(disp, i) // slot i is never drawn again
	}
	return out
}
