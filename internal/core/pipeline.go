// The rekey pipeline: the interval path of a Group decomposed into four
// explicit stages —
//
//	mark    (structural batch: prune leaves, insert joins, plan updates)
//	regen   (per-subtree key regeneration + encryption wrapping)
//	deliver (split multicast over the T-mesh)
//	apply   (per-user keyring updates from the delivered encryptions)
//
// mark and regen are keytree.Tree's Mark and Regenerate, and no driver
// calls them directly: every plane queues its joins and leaves in one
// keytree.Pending and ends the interval with Tree.Flush (the experiment
// harness's one-shot batches use Tree.Batch). deliver is split.Rekey
// for a Group and the experiment harness; the chaos soak delivers
// through recovery.DistributeLadder, whose multicast rung splits the
// same way. apply is the Applier below for a Group, and indexedApplier
// (further down) on the key plane. The two crypto-heavy stages
// parallelize: regen fans
// out across level-1 ID subtrees (Lemma 3 makes them independent rekey
// units) inside keytree.Regenerate, and apply fans out across delivered
// users below — both through work.Run, the process-wide fan-out.
// Determinism contract: with a fixed seed, every stage's output is
// byte-identical at any width.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tmesh/internal/ident"
	"tmesh/internal/keycrypt"
	"tmesh/internal/keytree"
	"tmesh/internal/memberstate"
	"tmesh/internal/obs"
	"tmesh/internal/split"
	"tmesh/internal/work"
)

// Applier is the final stage: it updates member keyrings from the
// collected deliveries of one interval.
type Applier interface {
	Apply(interval uint64, deliveries []split.Delivery) error
}

// ApplyError aggregates every member keyring failure of one apply
// stage, ordered by user ID, so a multi-user failure reports the same
// text regardless of worker scheduling.
type ApplyError struct {
	// Users and Errs are parallel slices sorted by user-ID key.
	Users []ident.ID
	Errs  []error
}

// Error implements error.
func (e *ApplyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d user(s) failed to apply rekey:", len(e.Users))
	for i, u := range e.Users {
		fmt.Fprintf(&b, " [%v: %v]", u, e.Errs[i])
	}
	return b.String()
}

// Unwrap exposes the first (lowest user ID) failure for errors.Is/As.
func (e *ApplyError) Unwrap() error {
	if len(e.Errs) == 0 {
		return nil
	}
	return e.Errs[0]
}

// storeApplier applies deliveries to keyrings held in a sharded member
// store, fanning out across users through work.Run. Users without a
// keyring (non-leaders in cluster mode, or plain-crypto runs) are
// skipped.
type storeApplier struct {
	store *memberstate.Store
	// limit is work.Run's upper bound on the fan-out (<= 0: none).
	limit int
	// obs, when non-nil, counts applied users and skipped deliveries;
	// workers update the hoisted counters lock-free.
	obs *obs.Registry
	// label, when non-empty, wraps each worker's slot in the pprof
	// label set {group=label, stage=apply}, so apply-stage CPU on the
	// shared long-lived helpers attributes to the tenant.
	label string
}

// NewApplier returns the pipeline's apply stage over a member store,
// usable standalone (benchmarks, alternative drivers) exactly as the
// Group uses it internally. parallelism is an upper bound on the
// fan-out width (values < 1 mean 1, i.e. inline).
func NewApplier(store *memberstate.Store, parallelism int) Applier {
	if parallelism < 1 {
		parallelism = 1
	}
	return &storeApplier{store: store, limit: parallelism}
}

// Apply implements Applier. Deliveries are first grouped per user in
// arrival order — so a user that received several split messages applies
// them in the order the transport delivered them, under exactly one
// worker — then users fan out. All failures are collected and reported
// sorted by user ID (as *ApplyError).
func (a *storeApplier) Apply(interval uint64, deliveries []split.Delivery) error {
	order := make([]ident.ID, 0, len(deliveries))
	byUser := make(map[string][]split.Delivery, len(deliveries))
	for _, d := range deliveries {
		key := d.To.Key()
		if _, seen := byUser[key]; !seen {
			order = append(order, d.To)
		}
		byUser[key] = append(byUser[key], d)
	}

	appliedC := a.obs.Counter("core_apply_users")
	skippedC := a.obs.Counter("core_apply_skipped_users")
	errs := make([]error, len(order))
	applyUser := func(i int) {
		id := order[i]
		kr := a.store.Keyring(id)
		if kr == nil {
			skippedC.Inc()
			return
		}
		appliedC.Inc()
		for _, d := range byUser[id.Key()] {
			sub := &keytree.Message{Interval: interval, Encryptions: d.Encryptions}
			if _, err := kr.Apply(sub); err != nil {
				errs[i] = err
				return
			}
		}
		if gk, ok := kr.GroupKey(); ok {
			a.store.SetGroupKey(id, gk)
		}
	}

	work.Run(a.limit, len(order), func(_ int, next func() (int, bool)) {
		obs.WithStage(a.label, "apply", func() {
			for {
				i, ok := next()
				if !ok {
					return
				}
				applyUser(i)
			}
		})
	})

	var failed []int
	for i, err := range errs {
		if err != nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(x, y int) bool {
		return order[failed[x]].Key() < order[failed[y]].Key()
	})
	agg := &ApplyError{}
	for _, i := range failed {
		agg.Users = append(agg.Users, order[i])
		agg.Errs = append(agg.Errs, errs[i])
	}
	return agg
}

// indexedApplier is the key plane's apply stage (see KeyPlane): instead
// of replaying a transport's per-user deliveries it hands every member
// of a group the rekey message directly. The message's encryptions are indexed by
// their encrypting-key ID once; each member then applies the at most
// depth+1 encryptions on its own ID path as a small synthetic message,
// so apply costs O(members × depth) lookups instead of O(members ×
// message cost) scans. A message that carries a duplicate encryption ID
// cannot be indexed and falls back to a full Keyring.Apply per member —
// the reference behaviour the indexed path is tested against. The index
// is reused across calls, so steady-state apply allocates nothing
// proportional to the group. Not safe for concurrent Apply calls.
type indexedApplier struct {
	store  *memberstate.Store
	depth  int
	limit  int
	label  string
	encIdx map[string]int32
}

// newIndexedApplier returns the key plane's apply stage over a member
// store. limit is work.Run's upper bound on the fan-out (<= 0: none);
// label, when non-empty, tags the workers with the pprof label set
// {group=label, stage=apply}.
func newIndexedApplier(params ident.Params, store *memberstate.Store, limit int, label string) *indexedApplier {
	return &indexedApplier{store: store, depth: params.Digits, limit: limit, label: label,
		encIdx: make(map[string]int32, 1024)}
}

// Apply installs msg into the keyring of every listed member and
// returns the number of keys installed. Every member is attempted; the
// error reported is that of the earliest failing member in the list, so
// it does not depend on worker scheduling.
func (a *indexedApplier) Apply(msg *keytree.Message, members []ident.ID) (int64, error) {
	if len(members) == 0 || msg.Cost() == 0 {
		return 0, nil
	}
	clear(a.encIdx)
	full := false // fall back to full-message scans on duplicate enc IDs
	for i, e := range msg.Encryptions {
		k := e.ID.Key()
		if _, dup := a.encIdx[k]; dup {
			full = true
			break
		}
		a.encIdx[k] = int32(i)
	}

	var (
		mu      sync.Mutex
		total   int64
		failIdx = len(members)
		failErr error
	)
	work.Run(a.limit, len(members), func(_ int, next func() (int, bool)) {
		obs.WithStage(a.label, "apply", func() {
			mini := keytree.Message{Interval: msg.Interval}
			scratch := make([]keycrypt.Encryption, 0, a.depth+1)
			var updated int64
			firstIdx, firstErr := len(members), error(nil)
			for {
				i, ok := next()
				if !ok {
					break
				}
				id := members[i]
				n, err := 0, error(nil)
				if kr := a.store.Keyring(id); kr == nil {
					err = fmt.Errorf("no keyring")
				} else if full {
					n, err = kr.Apply(msg)
				} else {
					scratch = scratch[:0]
					for l := 0; l <= a.depth; l++ {
						if idx, ok := a.encIdx[id.Prefix(l).Key()]; ok {
							scratch = append(scratch, msg.Encryptions[idx])
						}
					}
					if len(scratch) == 0 {
						continue
					}
					mini.Encryptions = scratch
					n, err = kr.Apply(&mini)
				}
				if err != nil {
					if i < firstIdx {
						firstIdx, firstErr = i, fmt.Errorf("member %v: %w", id, err)
					}
					continue
				}
				updated += int64(n)
			}
			mu.Lock()
			total += updated
			if firstIdx < failIdx {
				failIdx, failErr = firstIdx, firstErr
			}
			mu.Unlock()
		})
	})
	return total, failErr
}
