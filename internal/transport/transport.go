// Package transport moves wire frames between named peers over real
// byte channels: an in-process loopback switch, UDP datagrams, or TCP
// streams with length-prefixed framing. It is the layer ROADMAP item 3
// calls for — everything above it (the rekey ladder, the chaos fault
// schedule, the paper's delivery theorems) was proven only on the
// discrete event simulator until this package let the same protocol
// cross sockets.
//
// Addressing follows libunison's identity-over-locator split: a peer is
// *routed* by its stable PeerID (a member's tree-ID key, or "S" for the
// key server) and *located* by a host:port string that may change across
// redials. Robustness rules, enforced by every implementation:
//
//   - Bounded send queues. Send never blocks: a full queue returns
//     ErrQueueFull and bumps the overflow counter. Nothing is ever
//     buffered without bound and nothing is ever dropped silently —
//     every lost frame lands in a Status counter. A queue's storage
//     grows with use up to its bound (Config.Queue), so an idle
//     endpoint holds none of it.
//   - Explicit link state. TCP links report down/dialing/up/redialing,
//     with dial and redial counts, in the style of NDN-DPDK's socket
//     transports.
//   - Capped exponential backoff with jitter between redials, driven by
//     an injectable Clock so tests pin the exact schedule.
//   - Deadlines on every blocking socket operation: a stalled peer
//     costs a deadline error and a redial, never a wedged sender.
//   - No transport-level retransmission. A frame is sent at most once;
//     reliability is the recovery ladder's job (internal/recovery,
//     internal/rekeyd), so transport retries and ladder retries cannot
//     compound.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tmesh/internal/obs"
)

// PeerID is the routing key of an endpoint: a stable identity decoupled
// from its current network locator. The daemon uses ident.ID keys for
// members and ServerID for the key server.
type PeerID string

// ServerID is the conventional PeerID of the key server.
const ServerID PeerID = "S"

// MaxPeerID bounds the encoded peer-ID length (it travels in every
// frame envelope behind a 1-byte length).
const MaxPeerID = 255

// MaxFrame bounds a single wire frame. Anything larger is refused at
// Send and treated as a protocol error on receive — a hostile length
// prefix must not make a reader allocate gigabytes.
const MaxFrame = 1 << 20

// Handler consumes one received frame. Implementations invoke it from
// their read pumps, possibly concurrently from several goroutines (TCP
// reads each inbound connection on its own), so a handler that reuses
// storage across frames serializes itself. The frame slice is owned by
// the handler. from is the sender's registered PeerID, or one the read
// pump keeps for repeat senders: a shared, immutable string.
type Handler func(from PeerID, frame []byte)

// Errors returned by Send and the constructors.
var (
	ErrClosed        = errors.New("transport: closed")
	ErrUnknownPeer   = errors.New("transport: unknown peer")
	ErrQueueFull     = errors.New("transport: send queue full")
	ErrFrameTooBig   = errors.New("transport: frame exceeds MaxFrame")
	ErrDialRefused   = errors.New("transport: dial refused by fault plan")
	ErrDuplicatePeer = errors.New("transport: peer already registered")
)

// State is the reported condition of one peer link.
type State int32

const (
	// StateDown: the peer is registered but no connection exists yet.
	StateDown State = iota
	// StateDialing: the first connection attempt is in flight.
	StateDialing
	// StateUp: the link is established (for datagram and loopback
	// transports, the peer is simply resolvable).
	StateUp
	// StateRedialing: the link failed and the backoff/redial loop is
	// working to restore it.
	StateRedialing
	// StateClosed: the transport (or this peer registration) is gone.
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateDialing:
		return "dialing"
	case StateUp:
		return "up"
	case StateRedialing:
		return "redialing"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Status reports one peer link: its state, locator, and the full loss
// accounting (nothing this package drops is ever dropped silently).
type Status struct {
	State State
	// Addr is the peer's registered locator.
	Addr string
	// Sent counts frames handed to the network.
	Sent uint64
	// Received counts frames attributed to this peer by the read path.
	Received uint64
	// Dropped counts frames lost after queueing: write errors, oversize
	// datagrams, frames abandoned when a link or the transport closed.
	Dropped uint64
	// Overflows counts frames refused at Send because the bounded queue
	// was full (the caller also saw ErrQueueFull).
	Overflows uint64
	// Dials counts connection attempts; Redials counts attempts that
	// followed a failure or a lost connection.
	Dials, Redials uint64
	// LastErr is the most recent link error, "" when none.
	LastErr string
}

// Transport moves frames between this endpoint and its registered
// peers. Implementations are safe for concurrent use.
type Transport interface {
	// ID returns this endpoint's own peer ID.
	ID() PeerID
	// Addr returns this endpoint's bound locator (host:port, or the
	// peer ID itself on the loopback switch).
	Addr() string
	// AddPeer registers (or re-registers) a peer's locator.
	AddPeer(id PeerID, addr string) error
	// RemovePeer forgets a peer and tears down its link state.
	RemovePeer(id PeerID)
	// Send enqueues one frame to a peer. It never blocks: a full queue
	// is ErrQueueFull, an oversize frame ErrFrameTooBig. A nil error
	// means the frame was queued, not that it arrived; the transport
	// holds frame, uncopied, until written, so leave it unmodified.
	Send(to PeerID, frame []byte) error
	// SetHandler registers the receive callback. It must be set before
	// traffic is expected; frames received with no handler are counted
	// as drops.
	SetHandler(h Handler)
	// Status reports the link to one peer.
	Status(id PeerID) (Status, bool)
	// Close tears the endpoint down: all pumps, redial loops, and
	// queues terminate before Close returns (tests snapshot goroutine
	// counts around it).
	Close() error
}

// Clock abstracts time for the redial/backoff machinery so tests drive
// it deterministically.
type Clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Backoff is the capped exponential redial schedule with optional
// jitter: attempt n (1-based) waits min(Base<<(n-1), Max), then ±Jitter
// fraction of that drawn from Rand. The raw schedule is the same
// min(RetryBase<<(n-1), RetryMax) shape as the recovery ladder's, so
// the two layers' waits are directly comparable in traces.
type Backoff struct {
	Base, Max time.Duration
	// Jitter is the fraction of the step randomised (0 disables).
	Jitter float64
	// Rand supplies jitter draws in [0,1); nil with Jitter > 0 uses a
	// private seeded source. Inject a constant for deterministic tests.
	Rand func() float64
}

// DefaultBackoff is the production redial schedule.
func DefaultBackoff() Backoff {
	rng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	return Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.1,
		Rand: func() float64 { mu.Lock(); defer mu.Unlock(); return rng.Float64() }}
}

// Delay returns the wait before dial attempt n+1 after n failures
// (n >= 1). Values below 1 are treated as 1.
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := b.Max
	if shift := attempt - 1; shift < 63 {
		d = b.Base << shift
	}
	if d > b.Max || d <= 0 { // <= 0: the shift overflowed
		d = b.Max
	}
	if b.Jitter > 0 {
		r := b.Rand
		if r == nil {
			r = rand.Float64
		}
		// Spread over [d*(1-Jitter), d*(1+Jitter)].
		d += time.Duration((r()*2 - 1) * b.Jitter * float64(d))
		if d < 0 {
			d = 0
		}
	}
	return d
}

// Config carries the knobs shared by every implementation. The zero
// value is usable: defaults are filled by each constructor.
type Config struct {
	// ID is this endpoint's peer ID (required, <= MaxPeerID bytes).
	ID PeerID
	// Queue bounds the send queue (and the loopback inbox); <= 0 means
	// DefaultQueue. Storage grows with use up to it.
	Queue int
	// Clock drives the backoff waits; nil means the wall clock.
	Clock Clock
	// Backoff is the TCP redial schedule; the zero value means
	// DefaultBackoff.
	Backoff Backoff
	// WriteTimeout bounds every socket write; <= 0 picks the package
	// default. (Dials and idle reads are bounded by fixed deadlines.)
	WriteTimeout time.Duration
	// Dial overrides the TCP dial function (tests inject failures).
	Dial DialFunc
	// Faults, when non-nil, is consulted by the TCP dialer (dial
	// refusal, forced resets). Frame-level faults (loss, delay,
	// partition, kill) live in the WithFaults wrapper instead.
	Faults *FaultPlan
	// Obs receives transport counters (nil-safe, off by default).
	Obs *obs.Registry
}

// DialFunc dials a locator. The default is net.DialTimeout("tcp", ...).
type DialFunc func(addr string, timeout time.Duration) (netConn, error)

// Defaults.
const (
	DefaultQueue        = 256
	dialTimeout         = 2 * time.Second
	defaultWriteTimeout = 2 * time.Second
	readIdle            = 30 * time.Second
)

func (c *Config) fill() error {
	if c.ID == "" {
		return errors.New("transport: Config.ID is required")
	}
	if len(c.ID) > MaxPeerID {
		return fmt.Errorf("transport: peer ID %q exceeds %d bytes", c.ID, MaxPeerID)
	}
	if c.Queue <= 0 {
		c.Queue = DefaultQueue
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
	return nil
}
