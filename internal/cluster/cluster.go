// Package cluster implements the cluster rekeying heuristic of
// Appendix B, which reduces the rekey cost of the modified key tree
// (Fig. 12 (c)).
//
// All users belonging to the same level-(D-1) ID subtree form a bottom
// cluster. The member with the earliest joining time is the cluster
// leader; it holds all the keys on the path from its u-node to the root
// and shares a pairwise key with every other member of its cluster. A
// non-leader holds only three keys: the group key, its individual key,
// and the pairwise key with its leader.
//
// Only the join or leave of a leader incurs group rekeying: the key
// server's modified key tree contains u-nodes for leaders only. A
// non-leader join/leave is handled with certificates between the user,
// its leader, and the key server — no rekey message. When a leader
// leaves, leadership transfers to the earliest-joined remaining member
// (old leader's u-node leaves the key tree, new leader's joins) and the
// new leader re-establishes pairwise keys with the cluster.
//
// At forwarding level D-1 of a rekey multicast, a non-leader that
// receives the message hands it to its leader; the leader extracts the
// new group key and unicasts it to each member under their pairwise key.
package cluster

import (
	"fmt"
	"sort"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
)

// Manager tracks bottom clusters and drives the leaders-only key tree.
// It is not safe for concurrent use.
type Manager struct {
	params ident.Params
	seed   []byte
	tree   *keytree.Tree

	clusters map[string]*state // keyed by level-(D-1) prefix
	pending  keytree.Pending   // leader churn since the last Process

	pairwiseMessages int
}

type state struct {
	prefix  ident.Prefix
	leader  overlay.Record
	members map[string]overlay.Record // includes the leader
	// pairwise maps member ID key to the leader-member pairwise key.
	pairwise map[string]keycrypt.Key
	epoch    uint64 // bumped on every leadership change
}

// Result summarises one rekey interval under the heuristic.
type Result struct {
	// Message is the group rekey message over the leaders-only modified
	// key tree; its Cost() is the paper's rekey cost for Fig. 12 (c).
	Message *keytree.Message
	// LeaderJoins and LeaderLeaves count the cluster-leader churn that
	// actually triggered rekeying this interval.
	LeaderJoins, LeaderLeaves int
	// Joins and Leaves are the leader IDs that entered and left the
	// leaders-only tree this interval, sorted, so callers can maintain
	// per-leader state incrementally instead of rescanning every leader.
	Joins, Leaves []ident.ID
	// PairwiseUnicasts is the number of {groupKey}_pairwise unicasts
	// the leaders send their members to finish distribution.
	PairwiseUnicasts int
}

// New creates a Manager with an empty key tree.
func New(params ident.Params, seed []byte, opts keytree.Opts) (*Manager, error) {
	tree, err := keytree.New(params, seed, opts)
	if err != nil {
		return nil, err
	}
	return &Manager{
		params:   params,
		seed:     append([]byte(nil), seed...),
		tree:     tree,
		clusters: make(map[string]*state),
	}, nil
}

// Tree exposes the leaders-only modified key tree (read-only use).
func (m *Manager) Tree() *keytree.Tree { return m.tree }

// ClusterOf returns the bottom-cluster prefix of a user ID.
func (m *Manager) ClusterOf(id ident.ID) ident.Prefix {
	return id.Prefix(m.params.Digits - 1)
}

// Leader returns the leader record of the cluster at the prefix.
func (m *Manager) Leader(p ident.Prefix) (overlay.Record, bool) {
	s, ok := m.clusters[p.Key()]
	if !ok {
		return overlay.Record{}, false
	}
	return s.leader, true
}

// IsLeader reports whether the user currently leads its cluster.
func (m *Manager) IsLeader(id ident.ID) bool {
	s, ok := m.clusters[m.ClusterOf(id).Key()]
	return ok && s.leader.ID.Equal(id)
}

// Has reports whether the user is a member of some cluster.
func (m *Manager) Has(id ident.ID) bool {
	s, ok := m.clusters[m.ClusterOf(id).Key()]
	if !ok {
		return false
	}
	_, member := s.members[id.Key()]
	return member
}

// Members returns the records of a cluster's members in ID order.
func (m *Manager) Members(p ident.Prefix) []overlay.Record {
	s, ok := m.clusters[p.Key()]
	if !ok {
		return nil
	}
	out := make([]overlay.Record, 0, len(s.members))
	for _, r := range s.members {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Compare(out[j].ID) < 0 })
	return out
}

// Epoch returns the cluster's leadership epoch: 0 for a cluster still
// on its founding leader, bumped by one on every leadership transfer.
// Auditors use it to assert leadership changes are monotone and occur
// only when the previous leader departed.
func (m *Manager) Epoch(p ident.Prefix) (uint64, bool) {
	s, ok := m.clusters[p.Key()]
	if !ok {
		return 0, false
	}
	return s.epoch, true
}

// Prefixes returns the prefixes of all non-empty bottom clusters in
// prefix order.
func (m *Manager) Prefixes() []ident.Prefix {
	out := make([]ident.Prefix, 0, len(m.clusters))
	for _, s := range m.clusters {
		out = append(out, s.prefix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// PairwiseKey returns the leader-member pairwise key for a non-leader
// member (leaders have no pairwise key with themselves).
func (m *Manager) PairwiseKey(member ident.ID) (keycrypt.Key, bool) {
	s, ok := m.clusters[m.ClusterOf(member).Key()]
	if !ok {
		return keycrypt.Key{}, false
	}
	k, ok := s.pairwise[member.Key()]
	return k, ok
}

// Size returns the total number of users across all clusters.
func (m *Manager) Size() int {
	n := 0
	for _, s := range m.clusters {
		n += len(s.members)
	}
	return n
}

// Clusters returns the number of bottom clusters.
func (m *Manager) Clusters() int { return len(m.clusters) }

// Join admits a user. The first member of its bottom cluster becomes
// leader and is queued for group rekeying at the next Process call;
// later members only establish a pairwise key with their leader.
func (m *Manager) Join(rec overlay.Record) error {
	pfx := m.ClusterOf(rec.ID)
	s, ok := m.clusters[pfx.Key()]
	if ok {
		if _, dup := s.members[rec.ID.Key()]; dup {
			return fmt.Errorf("cluster: duplicate join of %v", rec.ID)
		}
		s.members[rec.ID.Key()] = rec
		s.pairwise[rec.ID.Key()] = m.derivePairwise(s, rec.ID)
		// Certificate exchange: join certificate to leader, SSL-style
		// pairwise establishment — two round trips.
		m.pairwiseMessages += 4
		return nil
	}
	s = &state{
		prefix:   pfx,
		leader:   rec,
		members:  map[string]overlay.Record{rec.ID.Key(): rec},
		pairwise: make(map[string]keycrypt.Key),
	}
	m.clusters[pfx.Key()] = s
	m.pending.Join(rec.ID)
	return nil
}

// Leave removes a user. A departing non-leader presents a leaving
// certificate; a departing leader hands its keys to the earliest-joined
// remaining member and the group rekeys.
func (m *Manager) Leave(id ident.ID) error {
	pfx := m.ClusterOf(id)
	s, ok := m.clusters[pfx.Key()]
	if !ok {
		return fmt.Errorf("cluster: leave of unknown user %v", id)
	}
	if _, member := s.members[id.Key()]; !member {
		return fmt.Errorf("cluster: leave of unknown user %v", id)
	}
	delete(s.members, id.Key())
	delete(s.pairwise, id.Key())

	if !s.leader.ID.Equal(id) {
		m.pairwiseMessages += 2 // leaving certificate round trip
		return nil
	}
	// Leader departure.
	m.pending.Leave(id)
	if len(s.members) == 0 {
		delete(m.clusters, pfx.Key())
		return nil
	}
	next := earliest(s.members)
	s.leader = next
	s.epoch++
	delete(s.pairwise, next.ID.Key())
	for key := range s.members {
		if key == next.ID.Key() {
			continue
		}
		rec := s.members[key]
		s.pairwise[key] = m.derivePairwise(s, rec.ID)
		m.pairwiseMessages += 2
	}
	m.pending.Join(next.ID)
	return nil
}

// earliest returns the member with the smallest JoinTime (ties broken by
// ID order for determinism).
func earliest(members map[string]overlay.Record) overlay.Record {
	var best overlay.Record
	first := true
	for _, r := range members {
		if first || r.JoinTime < best.JoinTime ||
			(r.JoinTime == best.JoinTime && r.ID.Compare(best.ID) < 0) {
			best = r
			first = false
		}
	}
	return best
}

func (m *Manager) derivePairwise(s *state, member ident.ID) keycrypt.Key {
	label := fmt.Sprintf("pw:%s:%s:%d", s.leader.ID.Key(), member.Key(), s.epoch)
	return keycrypt.DeriveKey(m.seed, label)
}

// Process ends the rekey interval: the queued leader churn is applied to
// the leaders-only key tree and the resulting rekey message returned.
// The key-regeneration stage fans out (see keytree.Regenerate); the
// message is byte-identical at any width.
func (m *Manager) Process() (*Result, error) {
	msg, joins, leaves, err := m.tree.Flush(&m.pending, 0)
	if err != nil {
		return nil, err
	}
	// Each leader unicasts the new group key to its members under the
	// pairwise keys (only when the group key actually changed).
	unicasts := 0
	if msg.Cost() > 0 {
		for _, s := range m.clusters {
			unicasts += len(s.members) - 1
		}
	}
	return &Result{
		Message:          msg,
		LeaderJoins:      len(joins),
		LeaderLeaves:     len(leaves),
		Joins:            joins,
		Leaves:           leaves,
		PairwiseUnicasts: unicasts,
	}, nil
}

// PairwiseMessages returns the cumulative count of intra-cluster
// certificate/SSL messages exchanged (join/leave bookkeeping that
// replaces group rekeying).
func (m *Manager) PairwiseMessages() int { return m.pairwiseMessages }
