// Package trace is the flight recorder for the rekey multicast path: a
// deterministic, causally-linked hop log that makes the paper's path
// theorems machine-checkable per rekey interval.
//
// A Recorder assigns seed/sequence-derived trace IDs to multicast
// sessions ("traces"). Each trace emits one JSONL record per FORWARD
// transmission — parent span, forwarding level, covered subtree prefix,
// encryption counts before/after REKEY-MESSAGE-SPLIT, sim-time send and
// receive, byte size — plus membership records, degradation-ladder rung
// records (unicast recovery, full resync), and a closing record naming
// the surviving members. The audit side (audit.go) groups the records
// by trace and checks only the trace itself: schema, causal stream
// order, forwarding-level monotonicity. The theorems are checked by
// package chaos's auditors, which take their evidence from a Group.
//
// Design rules, inherited from package obs and enforced by tests:
//
//   - Off by default, nil-safe everywhere. A nil *Recorder returns nil
//     *Trace handles, and every method on a nil *Trace is a no-op, so
//     instrumented code needs no guards (hot paths may still guard to
//     avoid building record fields that would be thrown away).
//   - Deterministic output only. Records carry sim-clock times and
//     seed/sequence-derived IDs — never the wall clock — so same-seed
//     runs emit byte-identical trace streams, and runs with tracing
//     off are byte-identical to runs with tracing on everywhere else.
package trace

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/obs"
)

// Record is one JSONL line of a trace stream. A single struct covers
// every record kind; omitempty keeps irrelevant fields off the wire.
//
// Kinds:
//
//	"trace"   — opens a trace: label, interval, split mode, and the
//	            rekey message's encryption IDs in message order.
//	"member"  — one member expected to participate at send time.
//	"hop"     — one FORWARD transmission (the heart of the recorder).
//	"unicast" — one rung-2 recovery exchange (attempt is 1-based).
//	"resync"  — one rung-3 reliable resync delivery.
//	"end"     — closes a trace: members still alive at the audit and
//	            whether the interval was free of injected network faults.
type Record struct {
	Kind  string `json:"kind"`
	Trace string `json:"trace"`

	// kind "trace".
	Label    string   `json:"label,omitempty"`
	Seq      uint64   `json:"seq,omitempty"`
	Interval int      `json:"interval,omitempty"`
	Mode     string   `json:"mode,omitempty"`
	MsgEncs  []string `json:"msg_encs,omitempty"`

	// kinds "member", "unicast", "resync".
	User    string `json:"user,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Units   int    `json:"units,omitempty"`

	// kind "hop". Span IDs are per-trace, dense from 1; Parent is the
	// span that delivered the payload to the forwarder (0 = origin).
	Span      int64    `json:"span,omitempty"`
	Parent    int64    `json:"parent,omitempty"`
	From      string   `json:"from,omitempty"` // "[]" = the key server / origin
	FromLevel int      `json:"from_level,omitempty"`
	To        string   `json:"to,omitempty"`
	Level     int      `json:"level,omitempty"`
	Subtree   string   `json:"subtree,omitempty"`
	EncsIn    int      `json:"encs_in,omitempty"`
	Encs      int      `json:"encs,omitempty"`
	Bytes     int      `json:"bytes,omitempty"`
	Items     []string `json:"items,omitempty"`

	// Sim-clock times in nanoseconds (kinds "hop", "unicast", "resync").
	// RecvNS is -1 when the transmission was dropped.
	SentNS  int64 `json:"sent_ns,omitempty"`
	RecvNS  int64 `json:"recv_ns,omitempty"`
	Dropped bool  `json:"dropped,omitempty"`

	// kind "end".
	Survivors []string `json:"survivors,omitempty"`
	FaultFree bool     `json:"fault_free,omitempty"`
}

// Recorder mints traces and writes their records to a sink. A nil
// *Recorder is the documented off-switch. Safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	sink *obs.Sink
	seed int64
	seq  uint64
}

// NewRecorder builds a recorder whose trace IDs derive from seed and a
// per-recorder sequence number, so same-seed runs mint identical IDs.
func NewRecorder(seed int64, sink *obs.Sink) *Recorder {
	return &Recorder{sink: sink, seed: seed}
}

// Err reports the sink's first write error, if any. Safe on nil.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.sink.Err()
}

// Begin opens a trace and emits its "trace" record. label names the
// session kind ("rekey", "data"), interval is the 1-based rekey
// interval, start is the sim-clock send time, mode the splitting mode
// ("" when the payload is not a rekey message), and msgEncs the rekey
// message's encryption IDs in message order (nil for data traces).
// Returns nil on a nil recorder.
func (r *Recorder) Begin(label string, interval int, start time.Duration, mode string, msgEncs []string) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", label, r.seed, seq)
	t := &Trace{rec: r, id: fmt.Sprintf("%s-%016x", label, h.Sum64())}
	r.sink.Emit(Record{
		Kind:     "trace",
		Trace:    t.id,
		Label:    label,
		Seq:      seq,
		Interval: interval,
		Mode:     mode,
		MsgEncs:  msgEncs,
		SentNS:   int64(start),
	})
	return t
}

// Trace is the handle for one multicast session's records. All methods
// are safe for concurrent use (the deliver-stage pool may emit hops
// from several workers) and no-ops on a nil receiver.
type Trace struct {
	rec   *Recorder
	id    string
	spans atomic.Int64
}

// ID returns the seed-derived trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Member records one member expected to participate in the session.
func (t *Trace) Member(id ident.ID) {
	if t == nil {
		return
	}
	t.rec.sink.Emit(Record{Kind: "member", Trace: t.id, User: id.String()})
}

// Hop describes one FORWARD transmission for Trace.Hop.
type Hop struct {
	// Parent is the span that delivered the payload to the forwarder
	// (0 when the origin sender transmits the hop itself).
	Parent int64
	// From is the forwarding member (the zero ID for the key server).
	From ident.ID
	// FromLevel is the forwarder's own forwarding level.
	FromLevel int
	// To is the receiving neighbor; Level its forwarding level (s+1).
	To    ident.ID
	Level int
	// Subtree is the covered ID subtree w.ID[0:s] the split filtered for.
	Subtree ident.Prefix
	// EncsIn and Encs count payload units before and after the split.
	EncsIn, Encs int
	// Bytes is the modeled wire size (0 when no uplink model is attached).
	Bytes int
	// Items lists the forwarded encryption IDs in message order, when
	// the transport knows how to enumerate them.
	Items []string
	// Sent and Recv are sim-clock transmission times; Recv < 0 with
	// Dropped set when the loss model ate the hop.
	Sent, Recv time.Duration
	Dropped    bool
}

// Hop emits one hop record and returns its span ID for causal linking
// (0 on a nil trace).
func (t *Trace) Hop(h Hop) int64 {
	if t == nil {
		return 0
	}
	span := t.spans.Add(1)
	t.rec.sink.Emit(Record{
		Kind:      "hop",
		Trace:     t.id,
		Span:      span,
		Parent:    h.Parent,
		From:      h.From.String(),
		FromLevel: h.FromLevel,
		To:        h.To.String(),
		Level:     h.Level,
		Subtree:   h.Subtree.String(),
		EncsIn:    h.EncsIn,
		Encs:      h.Encs,
		Bytes:     h.Bytes,
		Items:     h.Items,
		SentNS:    int64(h.Sent),
		RecvNS:    int64(h.Recv),
		Dropped:   h.Dropped,
	})
	return span
}

// Unicast records one rung-2 recovery exchange: attempt n (1-based) for
// user, sent at sent, delivered at recv (or dropped with recv < 0),
// carrying units encryptions.
func (t *Trace) Unicast(user ident.ID, attempt int, sent, recv time.Duration, dropped bool, units int) {
	if t == nil {
		return
	}
	t.rec.sink.Emit(Record{
		Kind:    "unicast",
		Trace:   t.id,
		User:    user.String(),
		Attempt: attempt,
		Units:   units,
		SentNS:  int64(sent),
		RecvNS:  int64(recv),
		Dropped: dropped,
	})
}

// Resync records one rung-3 reliable resync delivery.
func (t *Trace) Resync(user ident.ID, sent, recv time.Duration, units int) {
	if t == nil {
		return
	}
	t.rec.sink.Emit(Record{
		Kind:   "resync",
		Trace:  t.id,
		User:   user.String(),
		Units:  units,
		SentNS: int64(sent),
		RecvNS: int64(recv),
	})
}

// End closes the trace: survivors are the members still alive (and
// still in the directory) at audit time — the set the delivery
// guarantees apply to — and faultFree reports whether the interval ran
// without injected network faults (loss, partition), which is when
// Theorem 1's "exactly one" tightens from "at most one".
func (t *Trace) End(survivors []ident.ID, faultFree bool) {
	if t == nil {
		return
	}
	out := make([]string, len(survivors))
	for i, id := range survivors {
		out[i] = id.String()
	}
	t.rec.sink.Emit(Record{Kind: "end", Trace: t.id, Survivors: out, FaultFree: faultFree})
}
