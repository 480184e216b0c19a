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
	"strings"

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

// AppendShare appends to dst the encryptions of payload relevant to the
// ID subtree — REKEY-MESSAGE-SPLIT's selection, Theorem 2's test — and
// returns the extended slice, as append does.
//
// payload is read in the layout every keytree.Message has: blocks of
// strictly decreasing ID length, each strictly increasing by ID. There
// a subtree w's share is at most one contiguous run per block: the IDs
// under w in a block at least as deep as w, the single ID w.Prefix(L)
// in a shallower block L. One binary search per block finds the run,
// and the share keeps the layout, so the next hop splits it the same
// way. Out of layout the result is still an in-order subsequence of
// payload and every element is relevant; it may miss some.
func AppendShare(dst, payload []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	if len(payload) == 0 {
		return dst
	}
	w := subtree.Key()
	lo := 0
	for l := payload[0].ID.Len(); l >= 0 && lo < len(payload); l-- {
		want := w[:min(l, len(w))]
		// The first element at or past (l, want): deeper blocks come
		// first, and each block ascends by ID.
		i, hi := lo, len(payload)
		for i < hi {
			mid := int(uint(i+hi) >> 1)
			if k := payload[mid].ID.Key(); len(k) < l || len(k) == l && k >= want {
				hi = mid
			} else {
				i = mid + 1
			}
		}
		j := i
		for j < len(payload) {
			if k := payload[j].ID.Key(); len(k) != l || !strings.HasPrefix(k, want) {
				break
			}
			j++
		}
		dst = append(dst, payload[i:j]...)
		lo = j
	}
	return dst
}

// arenaChunk is the granularity, in encryptions, of the chunks a
// session's shares are carved from.
const arenaChunk = 1024

// HopSplitter returns a tmesh SplitHop for one multicast session: each
// hop's share is appended into a chunked arena the session owns, so a
// hop allocates only when a chunk runs out. The shares alias the arena
// and are read-only. A splitter serves one session; its hops run one at
// a time on the session's simulator.
func HopSplitter() func(payload []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	var chunk []keycrypt.Encryption
	return func(payload []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
		if cap(chunk)-len(chunk) < len(payload) {
			chunk = make([]keycrypt.Encryption, 0, max(arenaChunk, len(payload)))
		}
		share := AppendShare(chunk[len(chunk):], payload, subtree)
		chunk = chunk[:len(chunk)+len(share)]
		return share[:len(share):len(share)]
	}
}

// Index holds nothing: Split is AppendShare into a fresh slice.
// bench/sim.go builds one per interval; the type goes when it stops.
type Index struct{}

// NewIndex returns an Index. tree, encs and workers are ignored.
func NewIndex(tree *ident.Tree, encs []keycrypt.Encryption, workers int) *Index { return &Index{} }

// Split returns the share of encs for the subtree.
func (*Index) Split(encs []keycrypt.Encryption, subtree ident.Prefix) []keycrypt.Encryption {
	return AppendShare(nil, encs, subtree)
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
	// encryptions it received) in Report.Deliveries, in arrival order,
	// which the deterministic simulation fixes.
	Collect bool
	// Parallelism is read by nothing: the split has no fan-out. It stays
	// while bench/sim.go sets it.
	Parallelism int
	// Obs is the optional telemetry registry. When set, Rekey adds the
	// session's copies sent (split_hops), the encryptions they carried
	// (the paper's Fig. 7 "encryption stress" as a live metric), and the
	// per-user deliveries, read from the finished session. Nothing from
	// the registry feeds back into the report.
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
// Encryptions slice is the hop's share, carved from the session's
// arena; treat it as read-only.
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
	// alias the session's share arena and are read-only.
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
	// path (per encryption, packetised) sees the same resolved options.
	if opts.Mode == 0 {
		opts.Mode = PerEncryption
	}
	if opts.PacketSize <= 0 {
		opts.PacketSize = 25
	}

	var deliveries []Delivery
	var observe func(to ident.ID, encs []keycrypt.Encryption, level int)
	if opts.Collect {
		observe = func(to ident.ID, encs []keycrypt.Encryption, level int) {
			deliveries = append(deliveries, Delivery{To: to, Level: level, Encryptions: encs})
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
			cfg.SplitHop = HopSplitter()
		}
		res, err = tmesh.Multicast(cfg, msg.Encryptions)
	case PerPacket:
		cfg := tmesh.Config[[]Packet]{
			Dir:                dir,
			EarliestPrimaryRow: opts.EarliestPrimaryRow,
			SplitHop:           FilterPackets,
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
		res, err = tmesh.Multicast(cfg, Packetize(msg.Encryptions, opts.PacketSize))
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
	hops, received, units := res.SenderStress, 0, 0
	for key, st := range res.Users {
		rep.ReceivedPerUser[key] = st.UnitsReceived
		rep.ForwardedPerUser[key] = st.UnitsForwarded
		hops += st.Stress
		received += st.Received
		units += st.UnitsReceived
		// The server's emitted units are the units received at level 1.
		if st.Level == 1 {
			rep.ServerUnits += st.UnitsReceived
		}
	}
	// Every copy sent is delivered (the session has no loss model), so
	// the forwarded and the delivered encryptions are one sum.
	opts.Obs.Counter("split_hops").Add(int64(hops))
	opts.Obs.Counter("split_hop_forwarded_encryptions").Add(int64(units))
	opts.Obs.Counter("split_deliveries").Add(int64(received))
	opts.Obs.Counter("split_delivered_encryptions").Add(int64(units))
	return rep, nil
}
