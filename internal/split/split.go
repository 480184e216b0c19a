// Package split implements the rekey message splitting scheme of
// Section 2.5 (routine REKEY-MESSAGE-SPLIT, Fig. 5) on top of the T-mesh
// multicast engine.
//
// When a member at forwarding level i composes the message for its
// (s,j)-primary neighbor w, it includes an encryption e if and only if
// e.ID is a prefix of w.ID[0:s] or w.ID[0:s] is a prefix of e.ID —
// exactly the condition under which at least one user in w's covered
// subtree needs e (Theorem 2). No per-downstream-user state is required:
// the prefix test on the encryption's ID is sufficient, thanks to the
// coherent identification of users, keys, and encryptions.
//
// The package also provides the packet-level splitting variant discussed
// at the end of Section 2.5 (split in units of fixed-size packets rather
// than individual encryptions, with correspondingly larger overhead) and
// the no-splitting baseline, so the bandwidth experiment of Fig. 13 can
// compare P1 vs P1' and P3 vs P3'.
package split

import (
	"fmt"
	"sync"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/obs"
	"tmesh/internal/overlay"
	"tmesh/internal/tmesh"
	"tmesh/internal/vnet"
)

// Mode selects how the rekey message is decomposed during multicast.
type Mode int

const (
	// NoSplit multicasts the whole rekey message to everyone (the
	// straightforward approach the paper improves on).
	NoSplit Mode = iota + 1
	// PerEncryption splits in units of individual encryptions (Fig. 5).
	PerEncryption
	// PerPacket splits at packet granularity: a packet is forwarded iff
	// it contains at least one relevant encryption.
	PerPacket
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NoSplit:
		return "no-split"
	case PerEncryption:
		return "per-encryption"
	case PerPacket:
		return "per-packet"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Filter returns the encryptions relevant to the given ID subtree: the
// REKEY-MESSAGE-SPLIT selection. The input slice is not modified; the
// result is nil when nothing is relevant.
func Filter(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	var dst []keycrypt.Encryption
	for _, e := range encs {
		if e.RelevantTo(subtree) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Packet is a group of encryptions transported as one unit in PerPacket
// mode.
type Packet []keycrypt.Encryption

// Packetize groups encryptions into packets of at most perPacket
// encryptions, in message order. Each packet owns its backing array: it
// used to alias the input slice, so a consumer mutating one packet
// in place corrupted sibling packets and the original message.
func Packetize(encs []keycrypt.Encryption, perPacket int) []Packet {
	if perPacket < 1 {
		perPacket = 1
	}
	if len(encs) == 0 {
		return nil
	}
	out := make([]Packet, 0, (len(encs)+perPacket-1)/perPacket)
	for start := 0; start < len(encs); start += perPacket {
		end := min(start+perPacket, len(encs))
		p := make(Packet, end-start)
		copy(p, encs[start:end])
		out = append(out, p)
	}
	return out
}

// FilterPackets keeps the packets containing at least one encryption
// relevant to the subtree. Packets are forwarded whole, which is why
// packet-level splitting carries more overhead than encryption-level.
// The result is nil when nothing is relevant.
func FilterPackets(pkts []Packet, subtree ident.Prefix) []Packet {
	var dst []Packet
	for _, p := range pkts {
		for _, e := range p {
			if e.RelevantTo(subtree) {
				dst = append(dst, p)
				break
			}
		}
	}
	return dst
}

// Options configures a rekey transport run.
type Options struct {
	// Mode selects the splitting granularity; zero value defaults to
	// PerEncryption.
	Mode Mode
	// PacketSize is the encryptions-per-packet for PerPacket mode;
	// values <= 0 default to 25 (roughly a 1 KB packet of 40-byte
	// encryptions).
	PacketSize int
	// EarliestPrimaryRow passes through to the transport (footnote 8:
	// the cluster heuristic prefers earliest-joined primaries at row
	// D-2 so leaders receive the message at level D-1).
	EarliestPrimaryRow int
	// Collect, when true, records every delivery (user, level, and the
	// encryptions it received) in Report.Deliveries, in arrival order.
	// The collection is mutex-guarded, so it is safe even if the
	// transport ever invokes delivery callbacks concurrently; arrival
	// order itself is fixed by the deterministic simulation.
	Collect bool
	// Parallelism is an upper bound on the fan-out that compiles the
	// message's PerEncryption split decisions into the per-subtree
	// lookup index before the multicast starts (values <= 1 compile
	// inline). The index contents are a pure function of (message,
	// directory), so the transported bytes are identical at any setting.
	Parallelism int
	// Obs is the optional telemetry registry. When set, the transport
	// counts split hops, the encryptions each hop forwards (the paper's
	// Fig. 7 "encryption stress" as a live metric), and per-user
	// deliveries. The counts are themselves deterministic, and nothing
	// from the registry feeds back into the report.
	Obs *obs.Registry
}

// EncIDs lists the encryption IDs of a message slice in order — the
// per-hop item enumeration the flight recorder stores.
func EncIDs(encs []keycrypt.Encryption) []string {
	out := make([]string, len(encs))
	for i, e := range encs {
		out[i] = e.ID.String()
	}
	return out
}

// Delivery records one user's receipt of rekey encryptions. The
// Encryptions slice may be shared between deliveries (hops covering the
// same subtree serve the same compiled slice); treat it as read-only.
type Delivery struct {
	To          ident.ID
	Level       int
	Encryptions []keycrypt.Encryption
}

// Report is the bandwidth accounting of one rekey transport session, in
// units of encryptions — the quantities plotted in Fig. 13.
type Report struct {
	// ReceivedPerUser is the number of encryptions received by each
	// user (Fig. 13 (a)).
	ReceivedPerUser map[string]int
	// ForwardedPerUser is the number of encryptions forwarded by each
	// user (Fig. 13 (b)).
	ForwardedPerUser map[string]int
	// LinkUnits is the number of encryptions that crossed each network
	// link (Fig. 13 (c)).
	LinkUnits map[vnet.LinkID]int
	// ServerUnits is the number of encryptions the key server emitted
	// across its B first-hop messages.
	ServerUnits int
	// Deliveries holds every user delivery in arrival order when
	// Options.Collect is set; nil otherwise. Their Encryptions slices
	// alias the compiled split index and are read-only.
	Deliveries []Delivery
	// Multicast is the underlying session result.
	Multicast *tmesh.Result
}

// Rekey multicasts a batch rekey message from the key server over the
// T-mesh with the selected splitting mode and returns the bandwidth
// report.
func Rekey(dir *overlay.Directory, msg *keytree.Message, opts Options) (*Report, error) {
	if dir == nil {
		return nil, fmt.Errorf("split: directory is required")
	}
	if msg == nil {
		return nil, fmt.Errorf("split: message is required")
	}
	// Zero-value defaulting happens once, up front, so every downstream
	// path (compiled, packetised) sees the same resolved options.
	if opts.Mode == 0 {
		opts.Mode = PerEncryption
	}
	if opts.PacketSize <= 0 {
		opts.PacketSize = 25
	}

	// Delivery observation: Collect appends to the mutex-guarded buffer.
	var (
		deliverMu  sync.Mutex
		deliveries []Delivery
		observe    func(to ident.ID, encs []keycrypt.Encryption, level int)
	)
	if opts.Collect {
		observe = func(to ident.ID, encs []keycrypt.Encryption, level int) {
			deliverMu.Lock()
			deliveries = append(deliveries, Delivery{To: to, Level: level, Encryptions: encs})
			deliverMu.Unlock()
		}
	}
	// Telemetry counters, hoisted once; nil on a nil registry so every
	// update below is a no-op. Delivery counts ride the observe chain,
	// hop counts wrap the SplitHop filters below.
	var hopsC, hopEncsC *obs.Counter
	if opts.Obs != nil {
		hopsC = opts.Obs.Counter("split_hops")
		hopEncsC = opts.Obs.Counter("split_hop_forwarded_encryptions")
		deliveriesC := opts.Obs.Counter("split_deliveries")
		deliveredC := opts.Obs.Counter("split_delivered_encryptions")
		inner := observe
		observe = func(to ident.ID, encs []keycrypt.Encryption, level int) {
			deliveriesC.Inc()
			deliveredC.Add(int64(len(encs)))
			if inner != nil {
				inner(to, encs, level)
			}
		}
	}

	var res *tmesh.Result
	var err error
	switch opts.Mode {
	case NoSplit, PerEncryption:
		cfg := tmesh.Config[[]keycrypt.Encryption]{
			Dir:                dir,
			EarliestPrimaryRow: opts.EarliestPrimaryRow,
			SizeOf:             func(encs []keycrypt.Encryption) int { return len(encs) },
			OnDeliver:          observe,
			Obs:                opts.Obs,
		}
		if opts.Mode == PerEncryption {
			cfg.SplitHop = NewIndex(dir.Tree(), msg.Encryptions, opts.Parallelism).Split
			if hopsC != nil {
				inner := cfg.SplitHop
				cfg.SplitHop = func(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
					out := inner(encs, subtree)
					hopsC.Inc()
					hopEncsC.Add(int64(len(out)))
					return out
				}
			}
		}
		res, err = tmesh.Multicast(cfg, msg.Encryptions)
	case PerPacket:
		pkts := Packetize(msg.Encryptions, opts.PacketSize)
		splitHop := FilterPackets
		if hopsC != nil {
			inner := splitHop
			splitHop = func(pkts []Packet, subtree ident.Prefix) []Packet {
				out := inner(pkts, subtree)
				hopsC.Inc()
				for _, p := range out {
					hopEncsC.Add(int64(len(p)))
				}
				return out
			}
		}
		cfg := tmesh.Config[[]Packet]{
			Dir:                dir,
			EarliestPrimaryRow: opts.EarliestPrimaryRow,
			SplitHop:           splitHop,
			SizeOf: func(pkts []Packet) int {
				n := 0
				for _, p := range pkts {
					n += len(p)
				}
				return n
			},
			Obs: opts.Obs,
		}
		if observe != nil {
			cfg.OnDeliver = func(to ident.ID, pkts []Packet, level int) {
				var flat []keycrypt.Encryption
				for _, p := range pkts {
					flat = append(flat, p...)
				}
				observe(to, flat, level)
			}
		}
		res, err = tmesh.Multicast(cfg, pkts)
	default:
		return nil, fmt.Errorf("split: unknown mode %v", opts.Mode)
	}
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ReceivedPerUser:  make(map[string]int, len(res.Users)),
		ForwardedPerUser: make(map[string]int, len(res.Users)),
		LinkUnits:        res.LinkUnits,
		Deliveries:       deliveries,
		Multicast:        res,
	}
	for key, st := range res.Users {
		rep.ReceivedPerUser[key] = st.UnitsReceived
		rep.ForwardedPerUser[key] = st.UnitsForwarded
	}
	// The server's emitted units: sum the first-hop units. These equal
	// the units received at level 1 plus nothing else, so recover them
	// from level-1 receivers.
	for _, st := range res.Users {
		if st.Level == 1 {
			rep.ServerUnits += st.UnitsReceived
		}
	}
	return rep, nil
}
