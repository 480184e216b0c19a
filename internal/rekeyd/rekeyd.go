// Package rekeyd runs the paper's rekey protocol over a real
// transport: one key server plus many member nodes exchanging
// internal/wire frames through internal/transport instead of eventsim
// hops. It is the daemon behind `rekeysim daemon` and the harness the
// chaos fault ladder uses to prove the multicast→unicast→resync
// degradation ladder outside the simulator.
//
// Protocol per rekey interval:
//
//  1. The server FORWARDs the batch rekey message over the T-mesh:
//     level-1 copies to its (0,j)-primary neighbors, each split to the
//     receiver's level-1 subtree (TypeRekey frames). Members forward
//     for rows [level, D-1], splitting the copy they received (the
//     share split.AppendShare cuts for each subtree), and apply it.
//  2. Every member that installs the interval's group key acks
//     (TypeAck). Acks are idempotent; duplicates from rungs racing
//     each other are harmless.
//  3. After Config.Timeout the server climbs the recovery ladder per
//     unacked member, stepping through the same recovery.Policy the
//     simulator's ladder does: RetryBudget unicast attempts (TypeRekey
//     at forward level D — terminal, never forwarded), then
//     ResyncBudget resyncs: the member's whole path wrapped under its
//     individual key (keytree.Tree.Resync), also a terminal TypeRekey.
//     A member still silent after that is reported dead-in-flight.
//     The server books all of it in the recovery.Outcome the
//     simulator's ladder fills.
//
// Every key a member installs arrives as an AES-GCM wrap and goes
// through one Member.install → keytree.Keyring.ApplyWith; no key crosses
// the transport in the clear.
//
// Nodes share one process (the daemon runs "many in-process user
// nodes over real loopback sockets"), so the overlay Directory and the
// window of intervals the server opened are shared state under Shared;
// everything that crosses nodes as *protocol* crosses the transport
// as bytes.
package rekeyd

import (
	"fmt"
	"sync"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/transport"
	"tmesh/internal/wire"
)

// PeerOf maps a member ID to its transport routing key: the ID's digit
// bytes.
func PeerOf(id ident.ID) transport.PeerID { return transport.PeerID(id.Key()) }

// Config tunes the server's delivery ladder. The five ladder fields
// are recovery.Policy's, kept flat so callers write them directly;
// unset ones take the daemon defaults.
type Config struct {
	Params ident.Params
	// Timeout is the post-multicast ack wait before the ladder starts.
	Timeout time.Duration
	// RetryBase/RetryMax/RetryBudget shape the unicast rung.
	RetryBase, RetryMax time.Duration
	RetryBudget         int
	// ResyncBudget bounds the resync rung's retransmissions; the ladder
	// must terminate even against a peer that never comes back — it
	// surfaces as dead-in-flight instead of a hang.
	ResyncBudget int
	// Obs receives daemon counters (nil-safe).
	Obs *obs.Registry
}

// policy returns the ladder schedule with the daemon defaults filled.
func (c *Config) policy() recovery.Policy {
	p := recovery.Policy{Timeout: c.Timeout, RetryBase: c.RetryBase, RetryMax: c.RetryMax,
		RetryBudget: c.RetryBudget, ResyncBudget: c.ResyncBudget}
	if p.Timeout <= 0 {
		p.Timeout = 500 * time.Millisecond
	}
	if p.RetryBase <= 0 {
		p.RetryBase = 100 * time.Millisecond
	}
	if p.RetryMax < p.RetryBase {
		p.RetryMax = 4 * p.RetryBase
	}
	if p.RetryBudget < 1 {
		p.RetryBudget = 3
	}
	if p.ResyncBudget < 1 {
		p.ResyncBudget = 5
	}
	return p
}

// Shared is the in-process state nodes read and the driver writes: the
// overlay directory (not concurrency-safe on its own) behind an
// RWMutex, the liveness oracle the FORWARD primaries consult, the
// window of intervals the server opened, and the ID → locator registry
// forward resolves next hops through.
type Shared struct {
	mu    sync.RWMutex
	dir   *overlay.Directory
	alive func(ident.ID) bool

	openMu sync.RWMutex
	opened map[uint64]bool // the last three intervals the server opened

	locMu sync.Mutex
	locs  map[transport.PeerID]*locator
}

// locator is one published member: its endpoint, whose Addr is where
// the ID lives now, and both directions of "who registered whom through
// the registry" — heldBy so a withdrawal un-registers the ID at exactly
// the endpoints that resolved it, holds so it leaves no reference to
// the departed endpoint behind.
type locator struct {
	tr            transport.Transport
	heldBy, holds map[transport.PeerID]*locator
}

// NewShared wraps a directory for concurrent node access.
func NewShared(dir *overlay.Directory) *Shared {
	return &Shared{dir: dir, opened: make(map[uint64]bool), locs: make(map[transport.PeerID]*locator)}
}

// publish enters a member's endpoint in the registry: from now on a
// published forwarder registers tr.Addr() the first time it sends the
// member a copy. publish and withdraw belong to the driver's goroutine;
// nodes may be forwarding underneath.
func (s *Shared) publish(tr transport.Transport) {
	s.locMu.Lock()
	s.locs[tr.ID()] = &locator{tr: tr, heldBy: map[transport.PeerID]*locator{}, holds: map[transport.PeerID]*locator{}}
	s.locMu.Unlock()
}

// withdraw takes a departed member out of the registry and its ID out
// of every endpoint that resolved it, so no registration of a departed
// ID outlives the interval it left in: a later member drawing the same
// ID lives at another locator.
func (s *Shared) withdraw(id transport.PeerID) {
	s.locMu.Lock()
	l := s.locs[id]
	if l == nil {
		s.locMu.Unlock()
		return
	}
	delete(s.locs, id)
	for _, o := range l.holds {
		delete(o.heldBy, id)
	}
	for _, o := range l.heldBy {
		delete(o.holds, id)
	}
	s.locMu.Unlock()
	for _, o := range l.heldBy { // unlocked: a TCP RemovePeer waits for its link goroutine
		o.tr.RemovePeer(id)
	}
}

// resolve returns the routing key of id, having made sure that tr, if
// published, holds id's published locator: registered on first use,
// under the registry lock so a concurrent withdraw either sees the
// registration or has already won. A published id's key is its
// endpoint's own ID, so resolving it builds no string. Unpublished ends
// are left alone — that caller keeps its own peer tables (the key
// server registers every member at bring-up) and the Send that follows
// says what they know.
func (s *Shared) resolve(tr transport.Transport, id ident.ID) transport.PeerID {
	var digits [ident.MaxDigits]byte
	s.locMu.Lock()
	l := s.locs[transport.PeerID(id.AppendDigits(digits[:0]))]
	if l == nil {
		s.locMu.Unlock()
		return PeerOf(id)
	}
	to := l.tr.ID()
	if me := s.locs[tr.ID()]; me != nil && me.tr == tr && me.holds[to] != l && tr.AddPeer(to, l.tr.Addr()) == nil {
		me.holds[to], l.heldBy[tr.ID()] = l, me
	}
	s.locMu.Unlock()
	return to
}

// SetAlive installs the liveness oracle used when picking forwarding
// primaries (the driver's view of killed peers). May be nil.
func (s *Shared) SetAlive(f func(ident.ID) bool) {
	s.mu.Lock()
	s.alive = f
	s.mu.Unlock()
}

// Read runs f holding the directory read lock.
func (s *Shared) Read(f func(dir *overlay.Directory)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f(s.dir)
}

// Write runs f holding the directory write lock (driver-side churn).
func (s *Shared) Write(f func(dir *overlay.Directory)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.dir)
}

// openInterval enters an interval in the window and drops the
// intervals more than two older.
func (s *Shared) openInterval(interval uint64) {
	s.openMu.Lock()
	s.opened[interval] = true
	for k := range s.opened {
		if k+2 < interval {
			delete(s.opened, k)
		}
	}
	s.openMu.Unlock()
}

// isOpen reports whether the interval is in the window.
func (s *Shared) isOpen(interval uint64) bool {
	s.openMu.RLock()
	defer s.openMu.RUnlock()
	return s.opened[interval]
}

// forwarder is the storage one node reuses across forward calls: the
// hops of one call and, back to back, the shares they are owed. A
// Member's is guarded by its receive lock; the Server's belongs to
// Distribute's goroutine.
type forwarder struct {
	hops  []hop
	share []keycrypt.Encryption
}

type hop struct {
	to     ident.ID
	digits int // of the subtree the copy covers = its forward level
	end    int // its share runs from the previous hop's end to this one
}

// forward sends over tr the FORWARD copies of msg owed by the node
// `from` at forwarding level `level` (the zero ID is the key server,
// whose level is 0), in f's storage. The walk is overlay's Forward, the
// one statement of the rule, run under the directory read lock: each
// entry's live primary gets msg split to its (row+1)-digit subtree at
// forward_level row+1, unless REKEY-MESSAGE-SPLIT leaves nothing for
// that subtree. msg is what this node received, so a member forwards
// nothing it was not sent. Splitting, encoding and sending happen
// outside the lock: every copy is split and sized first, then encoded
// into one buffer, each copy a capped piece of it (Send keeps the
// frame until it is written). It returns the number of copies the
// transport accepted; one it refused is a lost hop like any other, the
// ladder's to repair.
//
// A message of an interval outside the window goes nowhere: the server
// never opened that interval, or it is at least three intervals stale
// (Distribute(k) returns before k+1 starts, and the window keeps the
// last three), so the frame is forged or long dead.
func (s *Shared) forward(tr transport.Transport, msg *keytree.Message, from ident.ID, level int, f *forwarder) int {
	if !s.isOpen(msg.Interval) {
		return 0
	}
	f.hops = f.hops[:0]
	s.Read(func(dir *overlay.Directory) {
		visit := func(row int, e overlay.Entry) {
			if next, ok := e.Primary(s.alive); ok {
				f.hops = append(f.hops, hop{to: next.ID, digits: row + 1})
			}
		}
		if from.IsZero() {
			dir.Server().Forward(visit)
		} else if table, ok := dir.TableOf(from); ok { // else evicted mid-interval
			table.Forward(level, visit)
		}
	})
	share, size := f.share[:0], 0
	for i := range f.hops {
		h := &f.hops[i]
		start := len(share)
		share = split.AppendShare(share, msg.Encryptions, h.to.Prefix(h.digits))
		if h.end = len(share); h.end > start {
			size += wire.RekeySize(share[start:h.end])
		}
	}
	sent, buf, start := 0, make([]byte, 0, size), 0
	for _, h := range f.hops {
		encs := share[start:h.end]
		if start = h.end; len(encs) == 0 {
			continue
		}
		at := len(buf)
		var err error
		buf, err = wire.AppendRekey(buf, &keytree.Message{Interval: msg.Interval, Encryptions: encs}, h.digits)
		if err == nil && tr.Send(s.resolve(tr, h.to), buf[at:len(buf):len(buf)]) == nil {
			sent++
		}
	}
	clear(share) // the shares alias msg's ciphertexts: keep no frame alive
	f.share = share[:0]
	return sent
}

// Member is one user node: a keyring, a transport endpoint, and the
// FORWARD duty for its rows of the T-mesh.
type Member struct {
	id     ident.ID
	params ident.Params
	tr     transport.Transport
	sh     *Shared

	// rx serializes the receive path, which several read pumps may run
	// at once (TCP reads each inbound connection on its own): a frame
	// is decoded into msg and forwarded through fwd.
	rx  sync.Mutex
	msg keytree.Message
	fwd forwarder

	mu      sync.Mutex
	kr      *keytree.Keyring
	unw     keycrypt.Unwrapper // zero value: scratch only, no cipher state
	applied uint64
	copies  map[uint64]int // rekey copies received, per interval

	applies, forwards, reacks, applyErrs *obs.Counter
}

// NewMember wraps a transport endpoint as a member node holding the
// given keyring (its join-time path keys). appliedInterval is the
// interval whose keys the keyring already reflects: a node joining in
// interval i receives interval-i keys out of band (the paper's
// reliable join unicast), so it acks interval i without applying.
func NewMember(id ident.ID, params ident.Params, tr transport.Transport, sh *Shared, kr *keytree.Keyring, appliedInterval uint64, reg *obs.Registry) *Member {
	m := &Member{
		id: id, params: params, tr: tr, sh: sh,
		kr: kr, applied: appliedInterval,
		copies:    make(map[uint64]int),
		applies:   reg.Counter("rekeyd_member_applies"),
		forwards:  reg.Counter("rekeyd_member_forwards"),
		reacks:    reg.Counter("rekeyd_member_reacks"),
		applyErrs: reg.Counter("rekeyd_member_apply_errors"),
	}
	tr.SetHandler(m.handle)
	return m
}

// ID returns the member's tree ID.
func (m *Member) ID() ident.ID { return m.id }

// GroupKey returns the member's current group key.
func (m *Member) GroupKey() (keycrypt.Key, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.kr.GroupKey()
}

func (m *Member) handle(from transport.PeerID, frame []byte) {
	if len(frame) == 0 || wire.MsgType(frame[0]) != wire.TypeRekey {
		return
	}
	m.rx.Lock()
	if level, err := wire.UnmarshalRekeyInto(&m.msg, frame); err == nil {
		m.onRekey(&m.msg, level)
		clear(m.msg.Encryptions) // they alias the frame, which dies here
	}
	m.rx.Unlock()
}

// CopiesOf reports how many rekey copies arrived for an interval —
// the socket-side evidence for Theorem 1's exactly-one-copy claim in
// fault-free intervals (recovery rungs legitimately add copies).
func (m *Member) CopiesOf(interval uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.copies[interval]
}

func (m *Member) onRekey(msg *keytree.Message, level int) {
	if level < m.params.Digits {
		m.forwards.Add(int64(m.sh.forward(m.tr, msg, m.id, level, &m.fwd)))
	}
	m.mu.Lock()
	m.copies[msg.Interval]++
	for k := range m.copies {
		if k+4 < msg.Interval {
			delete(m.copies, k)
		}
	}
	m.mu.Unlock()
	m.install(msg)
}

// install brings the keyring to msg's interval and acks; a multicast
// copy, a unicast and a resync all arrive here. An interval already
// installed is a duplicate (Theorem 1's fault-tolerant redundancy, or a
// ladder rung racing a slow ack): re-ack, don't re-apply. Otherwise the
// interval is installed only when Keyring.ApplyWith installed at least one
// key. Every legitimate copy, unicast or resync of a cost > 0 interval
// carries one (the root is re-keyed under every level-1 child), so a
// frame holding nothing this member can open moves it nowhere. An apply
// error is a missing or stale KEK: this keyring skipped an interval the
// message assumes. Neither acks; the server's ladder reaches the resync
// rung.
func (m *Member) install(msg *keytree.Message) {
	m.mu.Lock()
	interval, installed := msg.Interval, m.applies
	if interval <= m.applied {
		interval, installed = m.applied, m.reacks
	} else if n, err := m.kr.ApplyWith(&m.unw, msg); err != nil || n == 0 {
		m.mu.Unlock()
		m.applyErrs.Inc()
		return
	} else {
		m.applied = interval
	}
	m.mu.Unlock()
	installed.Inc()
	m.ack(interval)
}

func (m *Member) ack(interval uint64) {
	m.tr.Send(transport.ServerID, wire.MarshalAck(interval, m.id))
}

// Close releases the member's transport endpoint.
func (m *Member) Close() error { return m.tr.Close() }

// Result is one interval's delivery outcome on the socket: the shared
// recovery.Outcome plus what only the daemon has.
type Result struct {
	recovery.Outcome
	Interval uint64
	// Cost is the message's rekey cost, its encryption count.
	Cost int
	// Expected is the number of members the server waited on.
	Expected int
	// SyncAttempts counts resync sends: the daemon's resync channel is
	// budgeted, the simulator's is a reliable one-shot.
	SyncAttempts int
}

// Server is the key-server node: it owns the ack ledger and drives the
// FORWARD start plus the recovery ladder.
type Server struct {
	params ident.Params
	policy recovery.Policy
	tr     transport.Transport
	sh     *Shared
	tree   *keytree.Tree
	fwd    forwarder // Distribute's

	// open is the ledger of the one Distribute in flight, nil between
	// intervals; lastInterval is the newest interval ever opened (the
	// key tree numbers intervals from 1, strictly increasing).
	mu           sync.Mutex
	open         *ledger
	lastInterval uint64

	acks, unicasts, syncsSent, dead *obs.Counter
}

// ledger is one interval's delivery state: a ladder position per
// expected member, advanced by Distribute's loop and settled by the ack
// handler, both under Server.mu, and the Result they book into.
type ledger struct {
	res  *Result
	rows []ladderRow
	byID map[ident.ID]*ladderRow
	// unsettled counts rows neither acked nor dead. The ack that brings
	// it to zero pokes wake, so Distribute returns on the last ack
	// rather than at its next deadline.
	unsettled int
	wake      chan struct{}
}

type ladderRow struct {
	id      ident.ID
	step    recovery.Step // rung and attempt in flight
	settled bool          // acked, or dead in flight
	// deadline is when step will have gone unanswered. Only
	// Distribute's goroutine touches it.
	deadline time.Time
}

// NewServer wraps the server transport endpoint. The tree stays owned
// by the driver (Flush between intervals); Distribute only reads it
// (Resync), so the driver must not mutate the tree while a Distribute
// is in flight.
func NewServer(cfg Config, tr transport.Transport, sh *Shared, tree *keytree.Tree) (*Server, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		params:    cfg.Params,
		policy:    cfg.policy(),
		tr:        tr,
		sh:        sh,
		tree:      tree,
		acks:      cfg.Obs.Counter("rekeyd_server_acks"),
		unicasts:  cfg.Obs.Counter("rekeyd_server_unicasts"),
		syncsSent: cfg.Obs.Counter("rekeyd_server_resyncs"),
		dead:      cfg.Obs.Counter("rekeyd_server_dead_in_flight"),
	}
	tr.SetHandler(s.handle)
	return s, nil
}

// Policy returns the ladder schedule in force (defaults filled).
func (s *Server) Policy() recovery.Policy { return s.policy }

// handle settles the acking member's row. Acks for an interval that is
// not open (stale re-acks, late ones), from members the interval did
// not expect, and duplicates from rungs racing each other are dropped.
func (s *Server) handle(from transport.PeerID, frame []byte) {
	if len(frame) == 0 || wire.MsgType(frame[0]) != wire.TypeAck {
		return
	}
	interval, id, err := wire.UnmarshalAck(frame, s.params)
	if err != nil {
		return
	}
	s.mu.Lock()
	l := s.open
	var row *ladderRow
	if l != nil && l.res.Interval == interval {
		row = l.byID[id]
	}
	if row == nil || row.settled {
		s.mu.Unlock()
		return
	}
	row.settled = true
	l.res.Settle(row.id, row.step.Rung, 0)
	l.unsettled--
	last := l.unsettled == 0
	s.mu.Unlock()
	s.acks.Inc()
	if last {
		l.wake <- struct{}{} // cap 1, and only one ack can be the last
	}
}

// Distribute delivers one interval's rekey message to every member in
// expected, climbing the ladder for stragglers. It returns the moment
// the last expected member acks, and otherwise once every straggler
// has run its ladder dry, so it always terminates: the worst case is
// Policy().Worst(). A cost-0 message changed no key and returns at once.
//
// It is one loop on the caller's goroutine: a single timer sits at the
// earliest row deadline; when it fires, every row whose step has gone
// unanswered moves to the policy's next step and is sent that rung.
func (s *Server) Distribute(msg *keytree.Message, expected []ident.ID) (*Result, error) {
	if msg == nil {
		return nil, fmt.Errorf("rekeyd: nil rekey message")
	}
	s.mu.Lock()
	if msg.Interval <= s.lastInterval {
		s.mu.Unlock()
		return nil, fmt.Errorf("rekeyd: interval %d already distributed", msg.Interval)
	}
	s.lastInterval = msg.Interval
	s.mu.Unlock()
	if msg.Cost() == 0 {
		return &Result{Interval: msg.Interval}, nil
	}
	res := &Result{Interval: msg.Interval, Cost: msg.Cost(), Expected: len(expected),
		Outcome: recovery.Outcome{BackoffCap: s.policy.RetryMax}}
	l := &ledger{
		res:       res,
		rows:      make([]ladderRow, len(expected)),
		byID:      make(map[ident.ID]*ladderRow, len(expected)),
		unsettled: len(expected),
		wake:      make(chan struct{}, 1),
	}
	for i, id := range expected {
		l.rows[i].id = id
		l.byID[id] = &l.rows[i]
	}
	s.mu.Lock()
	s.open = l
	s.mu.Unlock()

	s.sh.openInterval(msg.Interval)
	// FORWARD start: one level-1 copy per (0,j)-primary. The multicast
	// is step zero of every row's ladder, given Timeout from here.
	s.sh.forward(s.tr, msg, ident.ID{}, 0, &s.fwd)
	unanswered := time.Now().Add(s.policy.Wait(recovery.Step{}))
	for i := range l.rows {
		l.rows[i].deadline = unanswered
	}

	for {
		due, wait, unsettled := s.advance(l)
		if !unsettled {
			break
		}
		for _, row := range due {
			s.sendRung(msg, row)
		}
		timer := time.NewTimer(wait)
		select {
		case <-l.wake:
		case <-timer.C:
		}
		timer.Stop()
	}

	// Close the interval: acks that arrive from here on are dropped by
	// handle as not open.
	s.mu.Lock()
	s.open = nil
	s.mu.Unlock()
	res.Finish()
	return res, nil
}

// advance moves every unsettled row whose step has gone unanswered to
// the policy's next step, or reports it dead in flight when the ladder
// has run dry, booking the expired wait and the send it now owes. It
// returns the rows owed a send, the time to the earliest deadline
// left, and whether any row is still unsettled.
func (s *Server) advance(l *ledger) (due []*ladderRow, wait time.Duration, unsettled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var earliest time.Time
	for i := range l.rows {
		row := &l.rows[i]
		if row.settled {
			continue
		}
		if !row.deadline.After(now) {
			if row.step.Rung == recovery.ByUnicast {
				l.res.Expired(s.policy.Wait(row.step))
			}
			next, ok := s.policy.Next(row.step)
			if !ok {
				row.settled = true
				l.unsettled--
				l.res.Dead(row.id)
				s.dead.Inc()
				continue
			}
			if next.Rung == recovery.ByUnicast {
				l.res.Sent(next.Attempt)
				s.unicasts.Inc()
			} else {
				l.res.SyncAttempts++
				s.syncsSent.Inc()
			}
			row.step, row.deadline = next, now.Add(s.policy.Wait(next))
			due = append(due, row)
		}
		if earliest.IsZero() || row.deadline.Before(earliest) {
			earliest = row.deadline
		}
	}
	return due, earliest.Sub(now), l.unsettled > 0
}

// sendRung transmits the rung a row has just moved to. A rung that
// cannot be built (the member left the tree under the ladder, which the
// driver contract rules out) is a rung lost: the chain is waited out
// and ends dead in flight.
func (s *Server) sendRung(msg *keytree.Message, row *ladderRow) {
	var slice *keytree.Message
	var err error
	if row.step.Rung == recovery.ByUnicast {
		// The member's own Lemma 3 slice.
		slice = &keytree.Message{Interval: msg.Interval, Encryptions: recovery.NeededBy(msg, row.id)}
	} else {
		// Resync: the member's whole path, wrapped under its individual
		// key. A tree read; the driver contract forbids a concurrent
		// Flush during Distribute.
		slice, err = s.tree.Resync(row.id)
	}
	// Either rung is a rekey frame at terminal forward level D, never
	// forwarded further.
	var buf []byte
	if err == nil {
		buf, err = wire.MarshalRekey(slice, s.params.Digits)
	}
	if err == nil {
		s.tr.Send(PeerOf(row.id), buf)
	}
}

// Close releases the server's transport endpoint.
func (s *Server) Close() error { return s.tr.Close() }
