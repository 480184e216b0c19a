// Package tmesh implements the paper's multicast scheme (Section 2.3):
// forwarding-level-driven multicast over the neighbor tables, used for
// both rekey and data transport.
//
// A multicast session has a sender (the key server for rekey transport, a
// user for data transport), a message, and all other members as
// receivers. The message carries a forward_level field. The sender
// transmits at level 0; a user that receives a message with
// forward_level = i forwards, for every row s in [i, D-1], a copy with
// forward_level = s+1 to each (s,j)-primary neighbor (routine FORWARD,
// Fig. 2). With 1-consistent tables every member receives exactly one
// copy (Theorem 1), and the member at forwarding level i shares its first
// i digits with all its downstream users (Lemma 1), which is what makes
// per-hop rekey-message splitting stateless (Theorem 2).
//
// The engine is generic over the payload so that plain data transport
// (constant payload) and rekey transport with per-hop splitting share one
// traversal. Per-user stress, application-layer delay, relative delay
// penalty, per-link stress, and per-hop payload units are recorded for
// the evaluation figures.
package tmesh

import (
	"fmt"
	"time"

	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/obs"
	"tmesh/internal/obs/trace"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// Config describes one multicast session.
type Config[P any] struct {
	// Dir provides membership, neighbor tables, and the network.
	Dir *overlay.Directory
	// SenderID is the sending user's ID; the zero ID makes the key
	// server the source (rekey transport).
	SenderID ident.ID
	// Alive, when non-nil, reports whether a user is responsive; the
	// forwarder falls back to the next neighbor in the same entry when
	// the primary is dead (the paper's fast failure recovery). Nil means
	// everyone is alive.
	Alive func(ident.ID) bool
	// SplitHop, when non-nil, derives the payload forwarded on a hop
	// that covers the given ID subtree (the receiving neighbor's
	// w.ID[0:s] prefix). Rekey-message splitting passes a filter here;
	// plain transport leaves it nil to forward the payload unchanged.
	SplitHop func(payload P, subtree ident.Prefix) P
	// SizeOf measures a payload in units (e.g. encryptions) for
	// bandwidth accounting. Nil counts every message as one unit.
	SizeOf func(P) int
	// OnDeliver, when non-nil, observes every copy delivered to a user
	// (including duplicates, should they ever occur).
	OnDeliver func(to ident.ID, payload P, level int)
	// DropHop, when non-nil, simulates message loss: a hop for which it
	// returns true is sent (and counted as stress and link traffic) but
	// never delivered, silently cutting off the receiver's whole
	// delivery subtree — the failure mode the unicast recovery of
	// package recovery repairs.
	DropHop func(from, to vnet.HostID) bool
	// Sim, when non-nil, runs the session on a shared external
	// simulator: Multicast schedules the send at StartAt and returns
	// without running; the caller drives the simulator (possibly with
	// several concurrent sessions) and reads the Result afterwards.
	Sim *eventsim.Simulator
	// StartAt is the virtual send time on a shared simulator.
	StartAt time.Duration
	// Uplinks, when non-nil, models access-link bandwidth: every copy a
	// host sends occupies its uplink for the message's transmission
	// time, serialising concurrent sessions — the congestion the paper's
	// splitting scheme exists to avoid.
	Uplinks *Uplinks
	// EarliestPrimaryRow, when positive, selects the earliest-joined
	// live neighbor as the primary at that table row instead of the
	// nearest one. The cluster rekeying heuristic sets it to D-2 so
	// rekey messages reach bottom-cluster leaders at forwarding level
	// D-1 (footnote 8 of the paper). Zero disables the override.
	EarliestPrimaryRow int
	// Trace, when non-nil, records every hop of the session into the
	// flight recorder: one causally-linked record per FORWARD
	// transmission (including dropped hops). Nil keeps the hot path
	// free of record construction.
	Trace *trace.Trace
	// TraceItems, when non-nil, enumerates a payload's item IDs (e.g.
	// encryption IDs) for the hop records, so the trace audit can check
	// REKEY-MESSAGE-SPLIT decisions item by item. Only called when
	// Trace is non-nil.
	TraceItems func(P) []string
	// Obs, when non-nil, receives session counters (currently
	// tmesh_duplicate_deliveries, the Theorem 1 alarm). Nil-safe. On a
	// shared simulator it also wraps every scheduled hop callback (the
	// send start and each delivery) in its pprof stage labels with
	// stage=deliver, so hop-path CPU burned on the simulator's goroutine
	// attributes to the driving session; a private simulator runs under
	// the caller's labels.
	Obs *obs.Registry
}

// Uplinks models the shared upstream access-link capacity of every
// host. Transmissions from one host are serialised: a burst of rekey
// copies delays any data copies queued behind it.
type Uplinks struct {
	bytesPerSecond float64
	perUnitBytes   int
	headerBytes    int
	busy           map[vnet.HostID]time.Duration
}

// NewUplinks creates an uplink model. bytesPerSecond is each host's
// upstream capacity; perUnitBytes is the wire size of one payload unit
// (e.g. ~80 bytes per encryption); headerBytes is the fixed per-message
// overhead.
func NewUplinks(bytesPerSecond float64, perUnitBytes, headerBytes int) (*Uplinks, error) {
	if bytesPerSecond <= 0 {
		return nil, fmt.Errorf("tmesh: uplink rate must be positive, got %v", bytesPerSecond)
	}
	if perUnitBytes < 0 || headerBytes < 0 {
		return nil, fmt.Errorf("tmesh: negative wire sizes")
	}
	return &Uplinks{
		bytesPerSecond: bytesPerSecond,
		perUnitBytes:   perUnitBytes,
		headerBytes:    headerBytes,
		busy:           make(map[vnet.HostID]time.Duration),
	}, nil
}

// Reserve books the uplink of host h for one message of the given units
// starting no earlier than now, returning the transmission-complete
// time. It is exported so other transports (e.g. the NICE baseline) can
// share the same uplink model in one simulation.
func (u *Uplinks) Reserve(h vnet.HostID, units int, now time.Duration) time.Duration {
	start := now
	if b := u.busy[h]; b > start {
		start = b
	}
	bytes := float64(u.headerBytes + units*u.perUnitBytes)
	tx := time.Duration(bytes / u.bytesPerSecond * float64(time.Second))
	end := start + tx
	u.busy[h] = end
	return end
}

// MessageBytes is the modeled wire size of one message of the given
// units (0 on a nil model).
func (u *Uplinks) MessageBytes(units int) int {
	if u == nil {
		return 0
	}
	return u.headerBytes + units*u.perUnitBytes
}

// UserStats aggregates one receiver's view of a session.
type UserStats struct {
	// Received is the number of message copies received (Theorem 1 says
	// exactly one under 1-consistency and no loss).
	Received int
	// Level is the forwarding level of the first copy received.
	Level int
	// Delay is the arrival time of the first copy on the session's
	// clock; its application-layer delay is Delay − Config.StartAt.
	Delay time.Duration
	// RDP is that delay divided by the one-way unicast delay from the
	// sender.
	RDP float64
	// Stress is the number of messages this user forwarded.
	Stress int
	// UnitsReceived counts payload units across received copies.
	UnitsReceived int
	// UnitsForwarded counts payload units across forwarded copies.
	UnitsForwarded int
	// UpstreamID is the member the first copy came from (zero ID for
	// the key server).
	UpstreamID ident.ID
	// UpstreamLevel is that member's forwarding level.
	UpstreamLevel int
}

// Result collects the outcome of a session.
type Result struct {
	// Users maps user-ID keys to their stats. The sender appears only
	// if it is a user, with Received = 0 and its forwarding stress.
	Users map[string]*UserStats
	// SenderStress is the number of copies the sender emitted.
	SenderStress int
	// LinkCopies and LinkUnits count message copies and payload units
	// per physical link (only when the network models links).
	LinkCopies map[vnet.LinkID]int
	LinkUnits  map[vnet.LinkID]int
	// Duration is the virtual time from send to the last delivery.
	Duration time.Duration
	// Lost counts subtrees that could not be reached because an entry
	// had no live neighbor.
	Lost int
	// Dropped counts hop messages lost to the DropHop model.
	Dropped int
}

// Multicast runs one session and returns the collected metrics.
//
// With Config.Sim nil, the session runs to completion on a private event
// simulator. With a shared simulator, the send is scheduled at
// Config.StartAt and Multicast returns immediately; the caller drives
// the simulator (possibly with several concurrent sessions sharing
// Uplinks) and reads the Result afterwards — Result.Duration then holds
// the last delivery time of this session.
func Multicast[P any](cfg Config[P], payload P) (*Result, error) {
	if cfg.Dir == nil {
		return nil, fmt.Errorf("tmesh: Config.Dir is required")
	}
	if cfg.StartAt < 0 {
		return nil, fmt.Errorf("tmesh: negative StartAt %v", cfg.StartAt)
	}
	res := &Result{
		Users:      make(map[string]*UserStats, cfg.Dir.Size()+1),
		LinkCopies: make(map[vnet.LinkID]int),
		LinkUnits:  make(map[vnet.LinkID]int),
	}
	shared := cfg.Sim != nil
	sim, prof := cfg.Sim, cfg.Obs
	if !shared {
		sim, prof = eventsim.New(), nil
	}
	m := &machine[P]{cfg: cfg, sim: sim, res: res, tr: cfg.Trace,
		// Stats for the whole group come from one slab: a session touches
		// nearly every member, so per-user allocations are pure overhead.
		// Entries handed out stay within the slab's fixed capacity (pointer
		// stability); late joiners beyond it get individual allocations.
		stats: make([]UserStats, 0, cfg.Dir.Size()+1),
		hops:  make([]hop[P], 0, cfg.Dir.Size()), // about one copy per member
		dupC:  cfg.Obs.Counter("tmesh_duplicate_deliveries"),
	}
	if err := m.validateSender(); err != nil {
		return nil, err
	}
	m.deliverFn = m.deliver
	if prof != nil {
		m.deliverFn = func(at time.Duration, i int) {
			obs.WithStage(prof, "deliver", func() { m.deliver(at, i) })
		}
	}
	sim.At(max(cfg.StartAt, sim.Now()), func(now time.Duration) {
		obs.WithStage(prof, "deliver", func() {
			m.start(payload, now)
		})
	})
	if shared {
		return res, nil
	}
	sim.Run()
	res.Duration = sim.Now()
	return res, nil
}

type machine[P any] struct {
	cfg       Config[P]
	sim       *eventsim.Simulator
	res       *Result
	tr        *trace.Trace
	dupC      *obs.Counter
	stats     []UserStats                    // slab backing res.Users entries; never regrown
	hops      []hop[P]                       // every scheduled delivery, by event arg
	deliverFn func(now time.Duration, i int) // the session's one hop handler
	path      []vnet.LinkID                  // link buffer reused by every hop's lookup
}

// hop is one copy in flight: what deliver needs when it arrives.
type hop[P any] struct {
	toID, fromID     ident.ID
	toHost           vnet.HostID
	level, fromLevel int
	payload          P
	span             int64
}

func (m *machine[P]) sizeOf(p P) int {
	if m.cfg.SizeOf == nil {
		return 1
	}
	return m.cfg.SizeOf(p)
}

func (m *machine[P]) splitFor(p P, subtree ident.Prefix) P {
	if m.cfg.SplitHop == nil {
		return p
	}
	return m.cfg.SplitHop(p, subtree)
}

func (m *machine[P]) userStats(id ident.ID) *UserStats {
	s, ok := m.res.Users[id.Key()]
	if !ok {
		if len(m.stats) < cap(m.stats) {
			m.stats = m.stats[:len(m.stats)+1]
			s = &m.stats[len(m.stats)-1]
			s.Level = -1
		} else {
			s = &UserStats{Level: -1}
		}
		m.res.Users[id.Key()] = s
	}
	return s
}

// validateSender checks the sender before any event is scheduled.
func (m *machine[P]) validateSender() error {
	if m.cfg.SenderID.IsZero() {
		return nil
	}
	if _, ok := m.cfg.Dir.TableOf(m.cfg.SenderID); !ok {
		return fmt.Errorf("tmesh: sender %v is not in the group", m.cfg.SenderID)
	}
	return nil
}

func (m *machine[P]) start(payload P, now time.Duration) {
	d := m.cfg.Dir
	if m.cfg.SenderID.IsZero() {
		st := d.Server()
		st.Forward(func(s int, e overlay.Entry) {
			m.sendVia(st.Host(), ident.ID{}, 0, e, s, payload, now, 0)
		})
		return
	}
	table, ok := d.TableOf(m.cfg.SenderID)
	if !ok {
		return // sender left between scheduling and start
	}
	m.userStats(m.cfg.SenderID).Level = 0
	m.forwardRows(table, 0, payload, now, 0)
}

// forwardRows sends a user's FORWARD copies (overlay.Table.Forward is
// the walk) at forwarding level `level`. parentSpan is the trace span
// that delivered the payload to this forwarder (0 at the origin).
func (m *machine[P]) forwardRows(table *overlay.Table, level int, payload P, now time.Duration, parentSpan int64) {
	owner := table.Owner()
	table.Forward(level, func(s int, e overlay.Entry) {
		m.sendVia(owner.Host, owner.ID, level, e, s, payload, now, parentSpan)
	})
}

// sendVia transmits one copy through an (s,j)-entry: it picks the primary
// live neighbor, splits the payload for that neighbor's covered subtree
// (w.ID[0:s], i.e. the first s+1 digits), and schedules the delivery.
func (m *machine[P]) sendVia(fromHost vnet.HostID, fromID ident.ID, fromLevel int, entry overlay.Entry, s int, payload P, now time.Duration, parentSpan int64) {
	var next overlay.Neighbor
	var ok bool
	if m.cfg.EarliestPrimaryRow > 0 && s == m.cfg.EarliestPrimaryRow {
		next, ok = entry.PrimaryEarliest(m.cfg.Alive)
	} else {
		next, ok = entry.Primary(m.cfg.Alive)
	}
	if !ok {
		if entry.Len() > 0 {
			m.res.Lost++ // populated entry, but nobody alive to take it
		}
		return
	}
	subtree := next.ID.Prefix(s + 1)
	hopPayload := m.splitFor(payload, subtree)
	units := m.sizeOf(hopPayload)
	if units == 0 && m.cfg.SplitHop != nil {
		// Nothing in the rekey message concerns this subtree: the
		// splitting scheme sends no message at all.
		return
	}

	if fromID.IsZero() {
		m.res.SenderStress++
	} else {
		st := m.userStats(fromID)
		st.Stress++
		st.UnitsForwarded += units
	}

	net := m.cfg.Dir.Network()
	m.path = net.AppendPathLinks(m.path[:0], fromHost, next.Host)
	for _, link := range m.path {
		m.res.LinkCopies[link]++
		m.res.LinkUnits[link] += units
	}

	level := s + 1 // msg.forward_level ← s+1
	toID, toHost := next.ID, next.Host
	if m.cfg.DropHop != nil && m.cfg.DropHop(fromHost, toHost) {
		m.res.Dropped++
		if m.tr != nil {
			m.tr.Hop(m.hopRecord(parentSpan, fromID, fromLevel, toID, level, subtree, payload, hopPayload, units, now, -1, true))
		}
		return
	}
	depart := now
	if m.cfg.Uplinks != nil {
		depart = m.cfg.Uplinks.Reserve(fromHost, units, now)
	}
	arrive := depart + net.OneWay(fromHost, toHost)
	var span int64
	if m.tr != nil {
		span = m.tr.Hop(m.hopRecord(parentSpan, fromID, fromLevel, toID, level, subtree, payload, hopPayload, units, depart, arrive, false))
	}
	m.hops = append(m.hops, hop[P]{toID: toID, fromID: fromID, toHost: toHost,
		level: level, fromLevel: fromLevel, payload: hopPayload, span: span})
	m.sim.AtArg(arrive, m.deliverFn, len(m.hops)-1)
}

// hopRecord assembles one flight-recorder hop. Only called with tracing
// on, so the uninstrumented path never builds these fields.
func (m *machine[P]) hopRecord(parentSpan int64, fromID ident.ID, fromLevel int, toID ident.ID, level int, subtree ident.Prefix, payload, hopPayload P, units int, sent, recv time.Duration, dropped bool) trace.Hop {
	h := trace.Hop{
		Parent:    parentSpan,
		From:      fromID,
		FromLevel: fromLevel,
		To:        toID,
		Level:     level,
		Subtree:   subtree,
		EncsIn:    m.sizeOf(payload),
		Encs:      units,
		Bytes:     m.cfg.Uplinks.MessageBytes(units),
		Sent:      sent,
		Recv:      recv,
		Dropped:   dropped,
	}
	if m.cfg.TraceItems != nil {
		h.Items = m.cfg.TraceItems(hopPayload)
	}
	return h
}

// deliver receives the i-th scheduled hop. It copies the record out:
// forwarding appends to the slab, which may move it.
func (m *machine[P]) deliver(now time.Duration, i int) {
	h := m.hops[i]
	id, level, payload := h.toID, h.level, h.payload
	st := m.userStats(id)
	st.Received++
	st.UnitsReceived += m.sizeOf(payload)
	if m.cfg.OnDeliver != nil {
		m.cfg.OnDeliver(id, payload, level)
	}
	if st.Received > 1 {
		// Duplicate: record it (tests assert it never happens), raise
		// the Theorem 1 alarm counter, and stop.
		m.dupC.Inc()
		return
	}
	st.Level = level
	st.Delay = now
	if now > m.res.Duration {
		m.res.Duration = now
	}
	st.UpstreamID = h.fromID
	st.UpstreamLevel = h.fromLevel
	if sender := m.senderHost(); sender >= 0 {
		appDelay := st.Delay - m.cfg.StartAt
		if uni := m.cfg.Dir.Network().OneWay(sender, h.toHost); uni > 0 {
			st.RDP = float64(appDelay) / float64(uni)
		} else {
			st.RDP = 1
		}
	}
	if level >= m.cfg.Dir.Params().Digits {
		return // FORWARD line 2: level = D, do not forward further
	}
	table, ok := m.cfg.Dir.TableOf(id)
	if !ok {
		return // receiver left between send and delivery
	}
	m.forwardRows(table, level, payload, now, h.span)
}

// senderHost returns the sending host, or -1 if unknown.
func (m *machine[P]) senderHost() vnet.HostID {
	if m.cfg.SenderID.IsZero() {
		return m.cfg.Dir.Server().Host()
	}
	if rec, ok := m.cfg.Dir.Record(m.cfg.SenderID); ok {
		return rec.Host
	}
	return -1
}
