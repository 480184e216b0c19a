// Package assign implements the distributed user ID assignment protocol
// of Section 3.1: a joining user determines its ID digit by digit,
// exploiting proximity in the underlying network so that users belonging
// to the same level-i ID subtree tend to be within RTT threshold R_i of
// each other.
//
// For each digit position i (0 <= i <= D-2) the joining user u:
//
//  1. collects up to P user records from each of its (i,j)-ID subtrees by
//     querying users it already knows (a query names a target ID prefix;
//     the receiver answers with all neighbor-table records matching it);
//  2. measures the gateway-to-gateway RTT r(u,w) to every collected user
//     (derived from end-to-end pings minus the two access-link RTTs);
//  3. computes, per subtree j, the F-percentile of those RTTs; if the
//     smallest percentile f(i,b) is <= R_{i+1}, u sets u.ID[i] = b and
//     recurses into that subtree; otherwise it asks the key server to
//     assign all remaining digits;
//  4. the key server always assigns the last digit, choosing it so that
//     the resulting ID is unique — with the footnote-3 fallback cascade
//     of modifying earlier digits when a level is exhausted.
//
// The total number of messages a join exchanges is O(P·D·N^(1/D)) on
// average; Stats reports the actual counts so the experiment driver can
// verify the shape.
package assign

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"tmesh/internal/ident"
	"tmesh/internal/overlay"
	"tmesh/internal/vnet"
)

// Config holds the protocol parameters. The paper's simulations use
// D = 5, B = 256, R = (150, 30, 9, 3) ms, F = 90, P = 10.
type Config struct {
	Params ident.Params
	// Thresholds are R_1 .. R_{D-1}: Thresholds[i] is compared against
	// the percentile RTT when determining digit i. Must have length
	// Params.Digits-1.
	Thresholds []time.Duration
	// Percentile is F in (0, 100]: the RTT percentile compared against
	// the thresholds ("In order to tolerate the estimation error of
	// RTTs, we did not use 100-percentile; 90-percentile is used").
	Percentile float64
	// CollectTarget is P: the number of user records the joiner tries
	// to collect from each candidate ID subtree.
	CollectTarget int
}

// DefaultThresholds returns the paper's R = (150, 30, 9, 3) ms vector for
// D = 5.
func DefaultThresholds() []time.Duration {
	return []time.Duration{
		150 * time.Millisecond,
		30 * time.Millisecond,
		9 * time.Millisecond,
		3 * time.Millisecond,
	}
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Params:        ident.DefaultParams,
		Thresholds:    DefaultThresholds(),
		Percentile:    90,
		CollectTarget: 10,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if len(c.Thresholds) != c.Params.Digits-1 {
		return fmt.Errorf("assign: need %d thresholds R_1..R_%d, got %d",
			c.Params.Digits-1, c.Params.Digits-1, len(c.Thresholds))
	}
	for i, r := range c.Thresholds {
		if r <= 0 {
			return fmt.Errorf("assign: threshold R_%d must be positive, got %v", i+1, r)
		}
	}
	if c.Percentile <= 0 || c.Percentile > 100 {
		return fmt.Errorf("assign: percentile %v out of (0, 100]", c.Percentile)
	}
	if c.CollectTarget < 1 {
		return fmt.Errorf("assign: CollectTarget must be >= 1, got %d", c.CollectTarget)
	}
	return nil
}

// Stats records the communication cost of one ID assignment.
type Stats struct {
	// Queries is the number of record-collection queries sent (each
	// costs a request and a response message).
	Queries int
	// Probes is the number of RTT measurements performed.
	Probes int
	// ServerAssigned is the number of trailing digits the key server
	// chose (always >= 1; more when a threshold test failed).
	ServerAssigned int
	// Messages is the total protocol messages exchanged, counting
	// query+response and probe+response as two each, plus the final
	// notification round trip with the key server.
	Messages int
	// Trace lists every exchange in protocol order, so callers can
	// reconstruct the join's wall-clock latency (queries are
	// sequential, probes of one level run in parallel).
	Trace []Exchange
}

// ExchangeKind classifies a protocol exchange.
type ExchangeKind int

const (
	// ExchangeServer is a round trip with the key server.
	ExchangeServer ExchangeKind = iota + 1
	// ExchangeQuery is a record-collection query round trip.
	ExchangeQuery
	// ExchangeProbe is an RTT measurement.
	ExchangeProbe
)

// Exchange is one protocol round trip.
type Exchange struct {
	Kind ExchangeKind
	// Peer is the other endpoint (the server's host for
	// ExchangeServer).
	Peer vnet.HostID
	// Level is the digit position being decided (-1 for the initial
	// and final server exchanges).
	Level int
}

// ErrGroupFull is returned when no unique ID can be found.
var ErrGroupFull = errors.New("assign: ID space exhausted")

// Assigner runs the assignment protocol against the current group state.
type Assigner struct {
	cfg Config
	dir *overlay.Directory
	rng *rand.Rand
}

// New creates an Assigner. The directory provides both the membership
// (the key server's knowledge) and the neighbor tables that answer
// collection queries; rng drives the random choices the protocol leaves
// open (seed-record choice, server digit choice).
func New(cfg Config, dir *overlay.Directory, rng *rand.Rand) (*Assigner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dir == nil {
		return nil, errors.New("assign: directory is required")
	}
	if rng == nil {
		return nil, errors.New("assign: rng is required")
	}
	return &Assigner{cfg: cfg, dir: dir, rng: rng}, nil
}

// Join runs the full protocol for a joining host and admits it: the
// record carrying the host, its new unique ID and the JoinTime at enters
// the directory the assigner holds. On error the directory is unchanged.
// Entering the key tree is left to the caller.
func (a *Assigner) Join(host vnet.HostID, at time.Duration) (overlay.Record, Stats, error) {
	id, st, err := a.assignID(host)
	if err != nil {
		return overlay.Record{}, st, err
	}
	rec := overlay.Record{Host: host, ID: id, JoinTime: at}
	if err := a.dir.Join(rec); err != nil {
		return overlay.Record{}, st, err
	}
	return rec, st, nil
}

// assignID runs the protocol and returns the joiner's new unique ID.
func (a *Assigner) assignID(host vnet.HostID) (ident.ID, Stats, error) {
	var st Stats
	params := a.cfg.Params

	ids := a.dir.IDs()
	if len(ids) == 0 {
		// "If u is the first join, the key server assigns its user ID
		// as D digits of 0."
		st.ServerAssigned = params.Digits
		st.Messages += 2 // join request + ID grant
		st.Trace = append(st.Trace, Exchange{Kind: ExchangeServer, Peer: a.dir.Server().Host(), Level: -1})
		id, err := ident.New(params, make([]ident.Digit, params.Digits))
		return id, st, err
	}

	// The key server hands u the record of a random existing user.
	seed := ids[a.rng.Intn(len(ids))]
	seedRec, _ := a.dir.Record(seed)
	st.Messages += 2
	st.Trace = append(st.Trace, Exchange{Kind: ExchangeServer, Peer: a.dir.Server().Host(), Level: -1})

	determined := make([]ident.Digit, 0, params.Digits)
	known := []overlay.Record{seedRec}

	for i := 0; i <= params.Digits-2; i++ {
		buckets, err := a.collect(host, determined, known, &st)
		if err != nil {
			return ident.ID{}, st, err
		}
		best, bestF, ok := a.bestBucket(host, i, buckets, &st)
		if !ok || bestF > a.cfg.Thresholds[i] {
			// Step 3, second case: not close enough to any subtree;
			// the server assigns digits i..D-1.
			return a.serverAssign(determined, &st)
		}
		determined = append(determined, best)
		known = buckets[best]
	}
	// All D-1 leading digits determined by proximity; the server assigns
	// the final digit for uniqueness.
	return a.serverAssign(determined, &st)
}

// collect implements step 1: gather up to P records from each (i,j)-ID
// subtree, where i = len(determined). It returns the per-digit buckets.
func (a *Assigner) collect(host vnet.HostID, determined []ident.Digit, known []overlay.Record, st *Stats) (map[ident.Digit][]overlay.Record, error) {
	params := a.cfg.Params
	i := len(determined)
	prefix, err := ident.PrefixOf(params, determined)
	if err != nil {
		return nil, err
	}

	buckets := make(map[ident.Digit][]overlay.Record)
	collected := make(map[ident.ID]bool)
	queried := make(map[ident.ID]bool)

	add := func(r overlay.Record) {
		if collected[r.ID] || !r.ID.HasPrefix(prefix) {
			return
		}
		// A bucket keeps at most P records; overflow is dropped, which
		// also bounds how many members of one subtree can be queried.
		d := r.ID.Digit(i)
		if len(buckets[d]) >= a.cfg.CollectTarget {
			return
		}
		collected[r.ID] = true
		buckets[d] = append(buckets[d], r)
	}
	for _, r := range known {
		add(r)
	}

	// "u keeps querying the users it collected from the ID subtree until
	// it collects P users from the subtree or it has queried all the
	// users it collected from the subtree." Each query also returns
	// records for sibling subtrees (the receiver answers with every
	// neighbor matching the target prefix), so buckets fill each other.
	for {
		var target overlay.Record
		found := false
		// Scan buckets in digit order, not map order: the query sequence
		// decides which records reach the capped buckets first, so a
		// randomized scan would make the assigned IDs — and every result
		// derived from them — differ from run to run.
		digits := make([]ident.Digit, 0, len(buckets))
		for d := range buckets {
			digits = append(digits, d)
		}
		sort.Ints(digits)
		for _, d := range digits {
			b := buckets[d]
			if len(b) >= a.cfg.CollectTarget {
				// This subtree reached P; query its members only if
				// some other bucket still needs records — covered by
				// their own members below.
				continue
			}
			for _, r := range b {
				if !queried[r.ID] {
					target, found = r, true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			break
		}
		queried[target.ID] = true
		st.Queries++
		st.Messages += 2
		st.Trace = append(st.Trace, Exchange{Kind: ExchangeQuery, Peer: target.Host, Level: i})
		for _, r := range a.answerQuery(target, prefix) {
			add(r)
		}
	}
	return buckets, nil
}

// answerQuery models a collection query: the receiver "looks up its
// neighbor table and returns the user records of all the neighbors whose
// IDs have the target ID prefix" (plus its own record, which the prefix
// always matches for users reached through the protocol).
func (a *Assigner) answerQuery(target overlay.Record, prefix ident.Prefix) []overlay.Record {
	table, ok := a.dir.TableOf(target.ID)
	if !ok {
		return nil // the queried user left meanwhile
	}
	var out []overlay.Record
	if target.ID.HasPrefix(prefix) {
		out = append(out, target)
	}
	table.ForEachNeighbor(func(_ int, _ ident.Digit, n overlay.Neighbor) {
		if n.ID.HasPrefix(prefix) {
			out = append(out, n.Record)
		}
	})
	return out
}

// bestBucket implements steps 2 and 3: probe RTTs and pick the subtree
// with the smallest F-percentile gateway RTT.
func (a *Assigner) bestBucket(host vnet.HostID, level int, buckets map[ident.Digit][]overlay.Record, st *Stats) (ident.Digit, time.Duration, bool) {
	net := a.dir.Network()
	bestDigit := ident.Digit(-1)
	var bestF time.Duration
	digits := make([]ident.Digit, 0, len(buckets))
	for d := range buckets {
		digits = append(digits, d)
	}
	sort.Ints(digits) // deterministic tie-break: smaller digit wins
	for _, d := range digits {
		records := buckets[d]
		rtts := make([]time.Duration, len(records))
		for k, r := range records {
			rtts[k] = net.GatewayRTT(host, r.Host)
			st.Probes++
			st.Messages += 2
			st.Trace = append(st.Trace, Exchange{Kind: ExchangeProbe, Peer: r.Host, Level: level})
		}
		f := percentile(rtts, a.cfg.Percentile)
		if bestDigit < 0 || f < bestF {
			bestDigit, bestF = d, f
		}
	}
	if bestDigit < 0 {
		return 0, 0, false
	}
	return bestDigit, bestF, true
}

// serverAssign implements step 4 plus footnote 3.
func (a *Assigner) serverAssign(determined []ident.Digit, st *Stats) (ident.ID, Stats, error) {
	st.Messages += 2 // notify server, receive full ID + path keys
	st.Trace = append(st.Trace, Exchange{Kind: ExchangeServer, Peer: a.dir.Server().Host(), Level: -1})
	id, assigned, err := CompleteID(a.dir.Tree(), a.cfg.Params, a.rng, determined)
	if err != nil {
		return ident.ID{}, *st, err
	}
	st.ServerAssigned = assigned
	return id, *st, nil
}

// CompleteID is the key server's side of step 4 plus footnote 3: given
// the digits a joining user determined by proximity, it chooses the
// digit at position len(determined) so that the resulting prefix is
// exclusive (no existing user shares it), falling back to modifying
// earlier digits, and finally to any unused ID. It returns the complete
// unique ID and the number of trailing digits the server chose. It is
// shared by the distributed protocol and the GNP-based centralized
// assigner.
func CompleteID(tree *ident.Tree, params ident.Params, rng *rand.Rand, determined []ident.Digit) (ident.ID, int, error) {
	// Try to find an exclusive digit at position l, then l-1, ... 0.
	for l := len(determined); l >= 0; l-- {
		prefix, err := ident.PrefixOf(params, determined[:l])
		if err != nil {
			return ident.ID{}, 0, err
		}
		if d, ok := freeDigit(tree, params, rng, prefix); ok {
			digits := make([]ident.Digit, params.Digits)
			copy(digits, determined[:l])
			digits[l] = d // remaining positions stay 0: the subtree is exclusive
			id, err := ident.New(params, digits)
			if err != nil {
				return ident.ID{}, 0, err
			}
			return id, params.Digits - l, nil
		}
	}
	// "If all the attempts fail, the key server will force u to join a
	// level-1 ID subtree": scan for any unused ID.
	id, ok := anyFreeID(tree, params)
	if !ok {
		return ident.ID{}, 0, ErrGroupFull
	}
	return id, params.Digits, nil
}

// freeDigit returns a digit d such that the child subtree prefix+d holds
// no users, preferring a uniformly random free digit so sibling subtrees
// fill evenly.
func freeDigit(tree *ident.Tree, params ident.Params, rng *rand.Rand, prefix ident.Prefix) (ident.Digit, bool) {
	free := make([]ident.Digit, 0, params.Base)
	for d := 0; d < params.Base; d++ {
		if tree.SubtreeSize(prefix.Child(ident.Digit(d))) == 0 {
			free = append(free, ident.Digit(d))
		}
	}
	if len(free) == 0 {
		return 0, false
	}
	return free[rng.Intn(len(free))], true
}

// anyFreeID scans the ID space for an unused ID (last-resort fallback).
func anyFreeID(tree *ident.Tree, params ident.Params) (ident.ID, bool) {
	capacity := params.Capacity()
	if tree.Size() >= capacity {
		return ident.ID{}, false
	}
	// Walk the tree: descend into the first non-full child at each level.
	digits := make([]ident.Digit, 0, params.Digits)
	prefix := ident.EmptyPrefix
	for l := 0; l < params.Digits; l++ {
		childCap := capacityBelow(params, l+1)
		found := false
		for d := 0; d < params.Base; d++ {
			c := prefix.Child(ident.Digit(d))
			if tree.SubtreeSize(c) < childCap {
				prefix = c
				digits = append(digits, ident.Digit(d))
				found = true
				break
			}
		}
		if !found {
			return ident.ID{}, false
		}
	}
	id, err := ident.New(params, digits)
	if err != nil {
		return ident.ID{}, false
	}
	return id, true
}

// capacityBelow returns the number of IDs under a node at the given
// level.
func capacityBelow(params ident.Params, level int) int {
	return int(math.Pow(float64(params.Base), float64(params.Digits-level)))
}

// percentile returns the F-percentile of the samples using the
// nearest-rank method. It panics on an empty slice (callers guarantee
// non-empty buckets).
func percentile(samples []time.Duration, f float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(f / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
